#include "serve/server.h"

#include <future>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>

#include "relational/sql.h"
#include "search/search_config.h"
#include "serve/session.h"
#include "support/json_writer.h"

namespace volcano::serve {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return "OK";
    case Status::Code::kInvalidArgument: return "INVALID_ARGUMENT";
    case Status::Code::kNotFound: return "NOT_FOUND";
    case Status::Code::kAlreadyExists: return "ALREADY_EXISTS";
    case Status::Code::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case Status::Code::kInternal: return "INTERNAL";
    case Status::Code::kUnimplemented: return "UNIMPLEMENTED";
  }
  return "UNKNOWN";
}

/// The shared shape of cold and cached plan responses: identical field
/// renderings, differing only in the "cached" flag (and the optional stats
/// tail on cold responses) — the byte-identity contract of the plan cache.
/// `stats_json` / `outcome_json` are pre-rendered nested documents (empty =
/// omitted), spliced verbatim.
std::string PlanResponse(uint64_t id, bool cached, bool degraded,
                         const char* source, uint64_t catalog_version,
                         const std::string& algebra,
                         const std::string& required, const std::string& plan,
                         const std::string& cost,
                         const std::string& stats_json = {},
                         const std::string& outcome_json = {}) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Value(id);
  w.Key("ok").Value(true);
  w.Key("cached").Value(cached);
  w.Key("degraded").Value(degraded);
  w.Key("source").Value(source);
  w.Key("catalog_version").Value(catalog_version);
  w.Key("algebra").Value(algebra);
  w.Key("required").Value(required);
  w.Key("plan").Value(plan);
  w.Key("cost").Value(cost);
  if (!stats_json.empty()) w.Key("stats").Raw(stats_json);
  if (!outcome_json.empty()) w.Key("outcome").Raw(outcome_json);
  w.EndObject();
  return w.Take();
}

/// `{"id": N`: the bytes of a plan response before its "ok" member. All
/// that follows them is fixed once a plan is cached (PlanCache's `hit`).
std::string IdHead(uint64_t id) { return "{\"id\": " + std::to_string(id); }

std::string ErrorResponse(uint64_t id, const Status& status,
                          bool shed = false) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Value(id);
  w.Key("ok").Value(false);
  if (shed) w.Key("shed").Value(true);
  w.Key("error").BeginObject();
  w.Key("code").Value(shed ? "OVERLOADED" : CodeName(status.code()));
  w.Key("message").Value(status.message());
  if (!status.details().empty()) {
    w.Key("details").BeginObject();
    for (const auto& [k, v] : status.details()) {
      w.Key(k).Value(v);
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string AdminResponse(uint64_t id, const char* what,
                          uint64_t catalog_version) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Value(id);
  w.Key("ok").Value(true);
  w.Key("admin").Value(what);
  w.Key("catalog_version").Value(catalog_version);
  w.EndObject();
  return w.Take();
}

}  // namespace

Server::Server(rel::Catalog* catalog, ServerOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {
  VOLCANO_CHECK(catalog_ != nullptr);
  VOLCANO_CHECK(options_.workers >= 1);
  // The serving loop owns the degradation ladder; the engine must hand back
  // its best (anytime/greedy) answer rather than erroring outright.
  options_.search.degradation = SearchOptions::Degradation::kAnytime;
  // Sessions hold a SearchConfig, so the composed knobs must validate here —
  // at startup, where a misconfiguration is a deployment error — rather than
  // per request.
  VOLCANO_CHECK(ValidateSearchOptions(options_.search).ok());
  // Pre-intern the one symbol the SQL parser creates, so concurrent request
  // parsing never writes to the shared symbol table (sessions only Lookup).
  catalog_->symbols().Intern("count(*)");
  session_arena_bytes_ =
      std::make_unique<std::atomic<size_t>[]>(options_.workers);
  for (int i = 0; i < options_.workers; ++i) {
    session_arena_bytes_[i].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(options_.workers);
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Server::~Server() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool Server::Submit(std::string line, std::function<void(std::string)> done) {
  uint64_t id;
  size_t inflight;
  bool shed, idle;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    id = next_id_++;
    inflight = inflight_;
    shed = inflight_ >= options_.max_inflight;
    idle = inflight_ == 0;
    if (!shed) {
      ++inflight_;
      if (!idle) {
        queue_.push_back(Request{id, std::move(line), std::move(done), {}});
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
    if (shed) ++stats_.shed;
  }
  if (shed) {
    done(ErrorResponse(
        id,
        Status::ResourceExhausted("server at capacity")
            .WithDetail("in_flight", std::to_string(inflight))
            .WithDetail("max_inflight",
                        std::to_string(options_.max_inflight)),
        /*shed=*/true));
    return false;
  }
  if (idle) {
    // Nothing is ahead of this request, so running its front half here
    // keeps FIFO order — and a hit then costs no thread handoff at all.
    Miss miss;
    if (std::optional<std::string> resp = Front(id, line, &miss)) {
      done(std::move(*resp));
      Finished();
      return true;
    }
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(
        Request{id, std::move(line), std::move(done), std::move(miss)});
  }
  queue_cv_.notify_one();
  return true;
}

std::string Server::HandleLine(std::string line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  Submit(std::move(line),
         [&promise](std::string resp) { promise.set_value(std::move(resp)); });
  return future.get();
}

uint64_t Server::Serve(std::istream& in, std::ostream& out) {
  std::mutex out_mu;
  uint64_t served = 0;
  std::string line;
  while (std::getline(in, line)) {
    // Skip blank lines without a response (keep-alive noise on pipes).
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (line == "!quit") break;
    ++served;
    Submit(std::move(line), [&out, &out_mu](std::string resp) {
      std::lock_guard<std::mutex> lock(out_mu);
      out << resp << "\n" << std::flush;
    });
    line.clear();
  }
  Drain();
  return served;
}

void Server::Drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  drain_cv_.wait(lock, [this] { return inflight_ == 0; });
}

uint64_t Server::BumpCatalog() {
  uint64_t version;
  {
    std::unique_lock<std::shared_mutex> lock(catalog_mu_);
    version = catalog_->BumpVersion();
  }
  cache_.InvalidateOlderThan(version);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.catalog_bumps;
  }
  return version;
}

ServeStats Server::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  PlanCache::Stats c = cache_.stats();
  s.cache_hits = c.hits;
  s.cache_misses = c.misses;
  s.cache_insertions = c.insertions;
  s.cache_invalidations = c.invalidations;
  s.cache_evictions = c.evictions;
  return s;
}

uint64_t Server::catalog_version() const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  return catalog_->version();
}

std::vector<size_t> Server::SessionArenaBytes() const {
  std::vector<size_t> out(options_.workers);
  for (int i = 0; i < options_.workers; ++i) {
    out[i] = session_arena_bytes_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Server::WorkerLoop(int worker_index) {
  // The session's model derives from catalog state; build it under the
  // reader lock so a concurrent version bump cannot interleave.
  std::optional<Session> session;
  {
    // Validated in the constructor, so FromOptions cannot fail here.
    SearchConfig config = SearchConfig::FromOptions(options_.search).value();
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    session.emplace(*catalog_, std::move(config), options_.model);
  }
  while (true) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    std::string resp = Process(*session, req);
    session_arena_bytes_[worker_index].store(session->arena_bytes(),
                                             std::memory_order_relaxed);
    req.done(std::move(resp));
    Finished();
  }
}

void Server::Finished() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  --inflight_;
  if (inflight_ == 0) drain_cv_.notify_all();
}

std::string Server::Process(Session& session, Request& req) {
  if (!req.miss.has_value()) {
    Miss miss;
    if (std::optional<std::string> resp = Front(req.id, req.line, &miss)) {
      return std::move(*resp);
    }
    req.miss = std::move(miss);
  }
  return ProcessSql(session, req.id, req.line, *req.miss);
}

std::optional<std::string> Server::Front(uint64_t id, std::string& line,
                                         Miss* miss) {
  miss->budget = options_.budget;
  bool malform = false, shrink = false, bump = false;
  if (options_.fault != nullptr) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    options_.fault->OnRequest(&malform, &shrink, &bump);
  }
  // Cache-poisoning attempt: the catalog moves right before this request.
  // The version key must keep any stale entry from ever being served.
  if (bump) BumpCatalog();

  if (!line.empty() && line[0] == '!') return ProcessAdmin(id, line);

  if (malform) line.insert(line.begin(), '\x01');
  if (shrink) {
    // Mid-request budget trip: the tightest call budget trips at the first
    // checkpoint past the root, exercising the degradation ladder.
    miss->budget = OptimizationBudget{};
    miss->budget.max_find_best_plan_calls = 1;
  }

  // A hit needs no parse. Texts with equal signatures parse to identical
  // algebra and required properties (sql_test.cc), so an entry exists only
  // for a signature that parsed and optimized at this very version, and the
  // signature alone fixes the required-props part of the goal.
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  miss->version = catalog_->version();
  StatusOr<std::string> signature = rel::NormalizeSql(line, *catalog_);
  if (signature.ok()) {
    if (std::optional<std::string> hit =
            ProbeCache(id, *signature, miss->version)) {
      return hit;
    }
  }
  lock.unlock();
  if (!signature.ok()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.errors;
    return ErrorResponse(id, signature.status());
  }
  miss->signature = std::move(*signature);
  return std::nullopt;
}

std::optional<std::string> Server::ProbeCache(uint64_t id,
                                              const std::string& signature,
                                              uint64_t version) {
  std::optional<std::string> hit =
      cache_.Lookup(signature, version, /*required=*/{}, IdHead(id));
  if (hit.has_value()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.ok;
    ++stats_.cached;
  }
  return hit;
}

std::string Server::ProcessAdmin(uint64_t id, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == "!bump") {
    uint64_t version = BumpCatalog();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.ok;
    return AdminResponse(id, "bump", version);
  }
  if (cmd == "!distinct") {
    std::string attr;
    double count = 0.0;
    if (!(in >> attr >> count)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.errors;
      return ErrorResponse(
          id, Status::InvalidArgument("expected: !distinct <attr> <count>")
                  .WithDetail("command", cmd));
    }
    Status status;
    uint64_t version;
    {
      std::unique_lock<std::shared_mutex> lock(catalog_mu_);
      Symbol sym = catalog_->symbols().Lookup(attr);
      status = catalog_->SetDistinct(sym, count);
      version = catalog_->version();
    }
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.errors;
      return ErrorResponse(id, status);
    }
    // SetDistinct advanced the version; sweep the now-stale entries.
    cache_.InvalidateOlderThan(version);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.catalog_bumps;
      ++stats_.ok;
    }
    return AdminResponse(id, "distinct", version);
  }
  if (cmd == "!stats") {
    std::string serve_json = stats().ToJson();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.ok;
    JsonWriter w;
    w.BeginObject();
    w.Key("id").Value(id);
    w.Key("ok").Value(true);
    w.Key("serve").Raw(serve_json);
    w.EndObject();
    return w.Take();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
  }
  return ErrorResponse(id,
                       Status::InvalidArgument("unknown admin command")
                           .WithDetail("command", cmd));
}

std::string Server::ProcessSql(Session& session, uint64_t id,
                               const std::string& sql, const Miss& miss) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  uint64_t version = catalog_->version();
  // The catalog moved since the front half probed: look for an entry at the
  // new version before paying for a search. The signature still holds — the
  // request protocol changes statistics, never the names it folds around.
  if (version != miss.version) {
    if (std::optional<std::string> hit =
            ProbeCache(id, miss.signature, version)) {
      return std::move(*hit);
    }
  }
  if (session.SyncCatalog()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.model_rebuilds;
  }

  StatusOr<rel::ParsedQuery> parsed = session.Parse(sql);
  if (!parsed.ok()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.errors;
    return ErrorResponse(id, parsed.status());
  }

  Session::Result r =
      session.Optimize(*parsed, miss.budget, options_.exodus_fallback);
  if (!r.status.ok()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.errors;
    return ErrorResponse(id, r.status);
  }
  // Only optimal plans enter the cache: a degraded plan reflects one
  // request's budget weather, not the query. A hit replays the cold
  // response with "cached" set and without the stats tail; its bytes after
  // the id are rendered here, once.
  if (!r.degraded) {
    CachedPlan entry;
    entry.hit =
        PlanResponse(0, /*cached=*/true, r.degraded, PlanSourceName(r.source),
                     version, r.algebra, r.required, r.plan, r.cost);
    entry.hit.erase(0, IdHead(0).size());
    cache_.Insert(miss.signature, version, /*required=*/{}, std::move(entry));
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.ok;
    if (r.degraded) ++stats_.degraded;
  }
  std::string stats_json;
  std::string outcome_json;
  if (options_.stats_in_response) {
    stats_json = r.stats.ToJson();
    outcome_json = r.outcome.ToJson();
  }
  return PlanResponse(id, /*cached=*/false, r.degraded,
                      PlanSourceName(r.source), version, r.algebra,
                      r.required, r.plan, r.cost, stats_json, outcome_json);
}

}  // namespace volcano::serve
