// serve_hot and serve_churn: one closed-loop client sending one request at a
// time through serve::Server::HandleLine to a one-worker server.
//
// serve_hot   the 15 TPC-H-shaped queries in seeded order and seeded
//             keyword-case/whitespace spellings; after the warm-up pass
//             every request is a plan-cache hit.
// serve_churn seeded chain (2-8 relations) and star (2-7) select-joins
//             over 10 relations with fresh constants (cache misses),
//             about a quarter repeats of a recent shape (hits until the
//             next write), and one `!distinct` statistics write per round
//             (invalidation sweep + model rebuild).
//
// Requests come in rounds that hold every request type once, in seeded
// order, so each type samples the same host conditions; the timed phase
// ends on a round boundary. Responses are checked between rounds, outside
// the timed intervals.

#include <algorithm>
#include <cctype>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.h"
#include "plans.h"
#include "relational/catalog.h"
#include "relational/query_gen.h"
#include "relational/sql.h"
#include "search/search_config.h"
#include "serve/plan_cache.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {
namespace {

using volcano::rel::Catalog;
using volcano::serve::PlanCache;
using volcano::serve::Server;
using volcano::serve::ServeStats;
using volcano::serve::Session;

// --- request spellings -------------------------------------------------------

constexpr std::string_view kKeywords[] = {
    "SELECT", "DISTINCT", "COUNT", "FROM", "WHERE", "AND",    "GROUP",
    "ORDER",  "BY",       "LEFT",  "OUTER", "JOIN", "ON",     "IN",
    "EXISTS", "NOT",      "HAVING",
};

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool IsKeyword(std::string_view word) {
  for (std::string_view kw : kKeywords) {
    if (word.size() != kw.size()) continue;
    bool same = true;
    for (size_t i = 0; i < kw.size() && same; ++i) {
      same = std::toupper(static_cast<unsigned char>(word[i])) == kw[i];
    }
    if (same) return true;
  }
  return false;
}

/// Splits SQL into words (identifiers, keywords, numbers) and punctuation.
std::vector<std::string> SqlTokens(const std::string& sql) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < sql.size()) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (IsWordChar(c)) {
      size_t j = i;
      while (j < sql.size() && IsWordChar(sql[j])) ++j;
      out.push_back(sql.substr(i, j - i));
      i = j;
    } else if ((c == '<' || c == '>') && i + 1 < sql.size() &&
               sql[i + 1] == '=') {
      out.push_back(sql.substr(i, 2));
      i += 2;
    } else {
      out.push_back(std::string(1, c));
      ++i;
    }
  }
  return out;
}

/// Re-renders `sql` with seeded keyword case and whitespace; NormalizeSql
/// must fold every spelling back to the canonical signature.
std::string Respell(const std::string& sql, Rng& rng) {
  static constexpr const char* kGaps[] = {" ", "  ", "\t", " \t "};
  std::vector<std::string> tokens = SqlTokens(sql);
  std::string out;
  if (rng.Chance(0.25)) out += ' ';
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string tok = tokens[i];
    if (i > 0) {
      bool words = IsWordChar(tokens[i - 1].back()) && IsWordChar(tok[0]);
      uint64_t g = rng.Below(words ? 4 : 5);
      if (g < 4) out += kGaps[g];  // punctuation may also touch its neighbor
    }
    if (IsKeyword(tok)) {
      switch (rng.Below(3)) {
        case 0:
          for (char& c : tok) c = static_cast<char>(std::tolower(c));
          break;
        case 1:
          for (size_t k = 1; k < tok.size(); ++k) {
            tok[k] = static_cast<char>(std::tolower(tok[k]));
          }
          break;
        default:
          break;  // upper case, as written
      }
    }
    out += tok;
  }
  return out;
}

// --- requests and their checks -----------------------------------------------

/// One request line. `shape` identifies the SQL modulo spelling (responses
/// to one shape must agree byte for byte); writes have shape -1.
struct Req {
  std::string text;
  int64_t shape = -1;
  bool spelling_ok = true;  ///< NormalizeSql folded the spelling back
};

/// Spells `canonical` anew and checks that NormalizeSql maps the spelling to
/// the canonical signature.
Req Spell(const std::string& canonical, int64_t shape, const Catalog& catalog,
          Rng& rng) {
  Req r{Respell(canonical, rng), shape, true};
  auto want = volcano::rel::NormalizeSql(canonical, catalog);
  auto got = volcano::rel::NormalizeSql(r.text, catalog);
  r.spelling_ok = want.ok() && got.ok() && *want == *got;
  return r;
}

/// Checks responses against the protocol: every response is "ok": true, and
/// a cached plan response equals the cold response of its shape byte for
/// byte apart from the request id and the "cached" flag. A write empties
/// the cold table (hits after it must come from fresh cold responses).
class ResponseCheck {
 public:
  bool Check(const Req& req, const std::string& resp) {
    size_t comma = resp.find(", ");
    if (!req.spelling_ok || comma == std::string::npos) return false;
    std::string_view body(resp);
    body.remove_prefix(comma);
    if (req.shape < 0) {
      cold_.clear();
      return body.starts_with(", \"ok\": true, \"admin\": \"distinct\"");
    }
    static constexpr std::string_view kHit = ", \"ok\": true, \"cached\": true";
    static constexpr std::string_view kCold =
        ", \"ok\": true, \"cached\": false";
    if (body.starts_with(kHit)) {
      ++hits_;
      auto it = cold_.find(req.shape);
      return it != cold_.end() && it->second == body.substr(kHit.size());
    }
    if (!body.starts_with(kCold)) return false;
    cold_[req.shape] = std::string(body.substr(kCold.size()));
    return true;
  }

  uint64_t hits() const { return hits_; }

 private:
  std::unordered_map<int64_t, std::string> cold_;
  uint64_t hits_ = 0;
};

// --- workloads ---------------------------------------------------------------

class RequestStream {
 public:
  virtual ~RequestStream() = default;
  /// The next round: every request type once, in seeded order.
  virtual std::vector<Req> NextRound() = 0;
};

class ServeWorkload {
 public:
  virtual ~ServeWorkload() = default;
  /// A fresh catalog in the workload's initial state.
  virtual std::unique_ptr<Catalog> BuildCatalog() const = 0;
  /// The set-up's cold pass: every distinct query once, canonical spelling.
  virtual std::vector<Req> Warmup() const = 0;
  /// The request stream for `seed` against `catalog`.
  virtual std::unique_ptr<RequestStream> Stream(const Catalog& catalog,
                                                uint64_t seed) const = 0;
  /// The fixed list behind plan_cost_sum, the same on every seed: the sum
  /// then moves only when plans do.
  virtual std::vector<std::string> PlanCostList() const = 0;
  virtual size_t cache_capacity() const = 0;
  /// Rounds the traced run replays.
  virtual int traced_rounds() const = 0;
};

// serve_hot ------------------------------------------------------------------

class HotStream : public RequestStream {
 public:
  HotStream(const std::vector<std::string>& queries, const Catalog& catalog,
            uint64_t seed)
      : queries_(queries), catalog_(catalog), rng_(seed) {}

  std::vector<Req> NextRound() override {
    std::vector<int64_t> order(queries_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
    rng_.Shuffle(order);
    std::vector<Req> round;
    for (int64_t q : order) round.push_back(Spell(queries_[q], q, catalog_, rng_));
    return round;
  }

 private:
  const std::vector<std::string>& queries_;
  const Catalog& catalog_;
  Rng rng_;
};

class ServeHot : public ServeWorkload {
 public:
  ServeHot() {
    for (const auto& q : volcano::rel::MakeTpchWorkload().queries) {
      queries_.push_back(q.sql);
    }
  }

  std::unique_ptr<Catalog> BuildCatalog() const override {
    // The catalog outlives the workload's model, which only borrows it.
    return std::move(volcano::rel::MakeTpchWorkload().catalog);
  }

  std::vector<Req> Warmup() const override {
    std::vector<Req> out;
    for (size_t i = 0; i < queries_.size(); ++i) {
      out.push_back(Req{queries_[i], static_cast<int64_t>(i), true});
    }
    return out;
  }

  std::unique_ptr<RequestStream> Stream(const Catalog& catalog,
                                        uint64_t seed) const override {
    return std::make_unique<HotStream>(queries_, catalog, seed);
  }

  std::vector<std::string> PlanCostList() const override {
    return queries_;
  }

  size_t cache_capacity() const override { return 1024; }
  int traced_rounds() const override { return 300; }

 private:
  std::vector<std::string> queries_;
};

// serve_churn -----------------------------------------------------------------

constexpr int kChurnRelations = 10;
constexpr size_t kChurnRecent = 24;  // repeats draw from this many fresh shapes
constexpr int64_t kWarmupShapes = int64_t{1} << 40;

double ChurnCard(int k) { return 1200.0 + 600.0 * k; }

/// A request type: topology x relation count x ORDER BY.
struct ChurnType {
  bool star;
  int relations;
  bool order_by;
};

/// Chains span 2-8 relations, stars 2-7. An 8-relation star optimizes in
/// ~15 ms, against ~6 ms for 7 and at most ~3.5 ms for anything else: its
/// two types alone would take 40% of a round and put latency_p90_us in the
/// empty stretch between the 3 ms and 6 ms clusters, where the value is set
/// by whichever ops the host happens to delay.
int MaxRelations(bool star) { return star ? 7 : 8; }

std::vector<ChurnType> ChurnTypes() {
  std::vector<ChurnType> types;
  for (int star = 0; star <= 1; ++star) {
    for (int n = 2; n <= MaxRelations(star == 1); ++n) {
      for (int order = 0; order <= 1; ++order) {
        types.push_back(ChurnType{star == 1, n, order == 1});
      }
    }
  }
  return types;
}

std::string Rel(int k) { return std::string("r").append(std::to_string(k)); }

/// A select-join in the paper's Figure-4 family: `relations` of the 10
/// relations joined as a chain or star, one selection per relation with a
/// fresh constant, and an optional ORDER BY on a join attribute.
std::string ChurnQuery(const ChurnType& t, Rng& rng) {
  std::vector<int> rels(kChurnRelations);
  for (int k = 0; k < kChurnRelations; ++k) rels[k] = k;
  rng.Shuffle(rels);
  rels.resize(t.relations);
  std::string sql = "SELECT * FROM ";
  for (int i = 0; i < t.relations; ++i) sql += (i ? ", " : "") + Rel(rels[i]);
  std::vector<std::string> conj;
  for (int i = 1; i < t.relations; ++i) {
    if (t.star) {
      conj.push_back(Rel(rels[0]) + ".a" + std::to_string(rng.Below(2)) +
                     " = " + Rel(rels[i]) + ".a0");
    } else {
      conj.push_back(Rel(rels[i - 1]) + ".a1 = " + Rel(rels[i]) + ".a0");
    }
  }
  for (int i = 0; i < t.relations; ++i) {
    conj.push_back(Rel(rels[i]) + ".a2 < " + std::to_string(rng.Range(5, 95)));
  }
  sql += " WHERE ";
  for (size_t i = 0; i < conj.size(); ++i) sql += (i ? " AND " : "") + conj[i];
  if (t.order_by) {
    sql += " ORDER BY " + Rel(rels[rng.Below(t.relations)]) + ".a0";
  }
  return sql;
}

class ChurnStream : public RequestStream {
 public:
  ChurnStream(const Catalog& catalog, uint64_t seed)
      : catalog_(catalog), rng_(seed), types_(ChurnTypes()) {}

  std::vector<Req> NextRound() override {
    rng_.Shuffle(types_);
    size_t write_at = rng_.Below(types_.size());
    std::vector<Req> round;
    for (size_t i = 0; i < types_.size(); ++i) {
      if (i == write_at) round.push_back(Write());
      Req fresh{ChurnQuery(types_[i], rng_), next_shape_++, true};
      round.push_back(Spell(fresh.text, fresh.shape, catalog_, rng_));
      recent_.push_back(std::move(fresh));
      if (recent_.size() > kChurnRecent) recent_.pop_front();
      if (rng_.Chance(1.0 / 3.0)) {
        const Req& again = recent_[rng_.Below(recent_.size())];
        round.push_back(Spell(again.text, again.shape, catalog_, rng_));
      }
    }
    return round;
  }

 private:
  /// A statistics write that keeps the catalog inside a fixed band.
  Req Write() {
    int k = rng_.Range(0, kChurnRelations - 1);
    int card = static_cast<int>(ChurnCard(k));
    bool fk = rng_.Chance(0.5);
    int value = fk ? rng_.Range(card / 8, card / 2) : rng_.Range(50, 200);
    return Req{"!distinct " + Rel(k) + (fk ? ".a1 " : ".a2 ") +
                   std::to_string(value),
               -1, true};
  }

  const Catalog& catalog_;
  Rng rng_;
  std::vector<ChurnType> types_;
  std::deque<Req> recent_;
  int64_t next_shape_ = 0;
};

class ServeChurn : public ServeWorkload {
 public:
  std::unique_ptr<Catalog> BuildCatalog() const override {
    auto catalog = std::make_unique<Catalog>();
    for (int k = 0; k < kChurnRelations; ++k) {
      double card = ChurnCard(k);
      auto rel = catalog->AddRelation(Rel(k), card, 100.0, 3,
                                      {card, card / 4.0, 100.0});
      VOLCANO_CHECK(rel.ok());
      if (k % 2 == 0) {
        VOLCANO_CHECK(catalog
                          ->SetSortedOn(*rel, {catalog->symbols().Lookup(
                                                  Rel(k) + ".a0")})
                          .ok());
      }
    }
    return catalog;
  }

  /// One fixed instance of every request type: the same on every seed, so
  /// set-up time does not depend on the seed.
  std::vector<Req> Warmup() const override {
    Rng rng(0x5741524d55505eedULL);
    std::vector<Req> out;
    for (const ChurnType& t : ChurnTypes()) {
      out.push_back(Req{ChurnQuery(t, rng),
                        kWarmupShapes + static_cast<int64_t>(out.size()), true});
    }
    return out;
  }

  std::unique_ptr<RequestStream> Stream(const Catalog& catalog,
                                        uint64_t seed) const override {
    return std::make_unique<ChurnStream>(catalog, seed);
  }

  std::vector<std::string> PlanCostList() const override {
    Rng rng(0x504c414e434f5354ULL);
    std::vector<std::string> list;
    for (int round = 0; round < kPlanCostRounds; ++round) {
      for (const ChurnType& t : ChurnTypes()) list.push_back(ChurnQuery(t, rng));
    }
    return list;
  }

  size_t cache_capacity() const override { return 16; }
  int traced_rounds() const override { return 20; }

 private:
  static constexpr int kPlanCostRounds = 16;
};

// --- set-up -------------------------------------------------------------------

/// A catalog and the one-worker server answering against it.
struct ServeInstance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Server> server;  // declared after: destroyed before catalog
  std::vector<std::string> warmup_responses;
};

struct SetupTimes {
  int64_t model_ns = 0;
  int64_t start_ns = 0;
  int64_t warmup_ns = 0;
  double total_s() const { return NsToS(model_ns + start_ns + warmup_ns); }
};

volcano::serve::ServerOptions ServerOptionsFor(const ServeWorkload& w) {
  volcano::serve::ServerOptions options;
  options.workers = 1;
  options.cache_capacity = w.cache_capacity();
  return options;
}

/// Builds the catalog, starts the server (ready once it has answered a
/// request), and sends the cold warm-up pass.
void SetUp(const ServeWorkload& w, ServeInstance* inst, SetupTimes* t,
           SpanLog* log) {
  std::vector<Req> warmup = w.Warmup();
  int64_t t0 = NowNs();
  {
    ScopedSpan span(log, "setup.model_build", 0);
    inst->catalog = w.BuildCatalog();
  }
  int64_t t1 = NowNs();
  {
    ScopedSpan span(log, "setup.server_start", 0);
    inst->server = std::make_unique<Server>(inst->catalog.get(),
                                            ServerOptionsFor(w));
    inst->server->HandleLine("!stats");
  }
  int64_t t2 = NowNs();
  {
    ScopedSpan span(log, "setup.warmup", 0);
    for (const Req& r : warmup) {
      inst->warmup_responses.push_back(inst->server->HandleLine(r.text));
    }
  }
  int64_t t3 = NowNs();
  t->model_ns = t1 - t0;
  t->start_ns = t2 - t1;
  t->warmup_ns = t3 - t2;
}

void CheckWarmup(const ServeWorkload& w, const ServeInstance& inst,
                 ResponseCheck* check, Report* report) {
  std::vector<Req> warmup = w.Warmup();
  for (size_t i = 0; i < warmup.size(); ++i) {
    report->Gate(check->Check(warmup[i], inst.warmup_responses[i]),
                 "warm-up response: " + inst.warmup_responses[i]);
  }
}

// --- untraced run --------------------------------------------------------------

void RunServe(const ServeWorkload& w, const Args& args, Report* report) {
  // One set-up sample before the timed phase and one at each checkpoint, so
  // the samples see the same host conditions as the timed rounds.
  std::vector<double> setup_s;
  auto sample_set_up = [&] {
    SampleSetUp([&] {
      ServeInstance inst;
      SetupTimes t;
      SetUp(w, &inst, &t, nullptr);
      return t.total_s();
    }, &setup_s, report);
  };
  sample_set_up();
  ServeInstance inst;
  SetupTimes ignored;
  SetUp(w, &inst, &ignored, nullptr);
  ResponseCheck check;
  CheckWarmup(w, inst, &check, report);

  PlanTotals plans =
      OptimizeList(*inst.catalog, w.PlanCostList(), nullptr);
  report->Gate(plans.failures == 0, "plan_cost_sum list did not optimize");

  std::unique_ptr<RequestStream> stream = w.Stream(*inst.catalog, args.seed);
  std::vector<std::string> responses;
  TimedPhase timed(args.seconds);
  while (timed.More()) {
    std::vector<Req> round = stream->NextRound();
    responses.resize(round.size());
    timed.StartRound();
    for (size_t i = 0; i < round.size(); ++i) {
      responses[i] = inst.server->HandleLine(round[i].text);
      timed.OpDone();
    }
    bool checkpoint = timed.EndRound();
    for (size_t i = 0; i < round.size(); ++i) {
      report->Op(check.Check(round[i], responses[i]));
    }
    if (checkpoint) sample_set_up();
  }
  report->Gate(inst.server->stats().shed == 0, "requests were shed");

  timed.Finish();
  report->Metric("setup_s", Quantile(setup_s, kCalmSetUpQuantile), "s");
  report->Metric("ops_per_s", timed.OpsPerSecond(), "1/s");
  report->Metric("latency_p50_us", timed.P50Us(), "us");
  report->Metric("latency_p90_us", timed.P90Us(), "us");
  report->Metric("plan_cost_sum", plans.cost_sum, "cost");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

// --- traced run ------------------------------------------------------------------

/// A session and plan cache on the client thread that see the same requests
/// as the server's, and so the same hits and misses.
struct Mirror {
  Mirror(Catalog& catalog, const ServeWorkload& w)
      : session(catalog, MirrorConfig()), cache(w.cache_capacity()) {}

  /// The server's search configuration.
  static volcano::SearchConfig MirrorConfig() {
    volcano::SearchOptions search;
    search.degradation = volcano::SearchOptions::Degradation::kAnytime;
    return volcano::SearchConfig::FromOptions(search).value();
  }

  Session session;
  PlanCache cache;
};

/// Replays one request's session work on the client thread through the same
/// public calls the server makes, against a mirror. Returns the time spent
/// inside those calls; `*hit` reports the mirror cache's answer.
int64_t Replay(const Req& req, Catalog& catalog, Mirror& mirror, SpanLog* log,
               uint64_t id, bool* hit) {
  Session& session = mirror.session;
  PlanCache& cache = mirror.cache;
  *hit = false;
  if (req.shape < 0) {  // the server applied the write; mirror its sweep
    cache.InvalidateOlderThan(catalog.version());
    return 0;
  }
  int64_t total = 0;
  SpanLog::Id root = log ? log->Begin("replay", id) : SpanLog::kNone;
  auto timed = [&](const char* name, auto&& fn) {
    int64_t t0 = NowNs();
    auto out = fn();
    int64_t t1 = NowNs();
    total += t1 - t0;
    if (log != nullptr) log->Add(name, t0, t1, root, id);
    return out;
  };
  int64_t sync0 = NowNs();
  bool rebuilt = session.SyncCatalog();
  int64_t sync1 = NowNs();
  total += sync1 - sync0;
  if (rebuilt && log != nullptr) {
    log->Add("session.rebuild", sync0, sync1, root, id);
  }
  uint64_t version = catalog.version();
  auto sig = timed("sql.normalize",
                   [&] { return volcano::rel::NormalizeSql(req.text, catalog); });
  auto parsed = timed("sql.parse", [&] { return session.Parse(req.text); });
  if (sig.ok() && parsed.ok()) {
    std::string required = parsed->required->ToString();
    auto cached = timed("cache.probe", [&] {
      return cache.Lookup(*sig, version, required);
    });
    *hit = cached.has_value();
    if (!*hit) {
      Session::Result r = timed("search.optimize", [&] {
        return session.Optimize(*parsed, volcano::OptimizationBudget{}, true);
      });
      if (r.status.ok() && !r.degraded) {
        cache.Insert(*sig, version, required,
                     volcano::serve::CachedPlan{r.algebra, r.required, r.plan,
                                                r.cost});
      }
    }
  }
  if (log != nullptr) log->End(root);
  return total;
}

void RunServeTraced(const ServeWorkload& w, const Args& args, Report* report) {
  SpanLog log;
  constexpr int kTracedSetups = 5;
  std::vector<double> model_s, start_s, warmup_s;
  std::unique_ptr<ServeInstance> inst;
  for (int i = 0; i < kTracedSetups; ++i) {
    inst.reset();
    inst = std::make_unique<ServeInstance>();
    SetupTimes t;
    SetUp(w, inst.get(), &t, &log);
    model_s.push_back(NsToS(t.model_ns));
    start_s.push_back(NsToS(t.start_ns));
    warmup_s.push_back(NsToS(t.warmup_ns));
  }
  Catalog& catalog = *inst->catalog;
  ResponseCheck check;
  CheckWarmup(w, *inst, &check, report);

  PlanTotals plans = OptimizeList(catalog, w.PlanCostList(), nullptr);
  report->Gate(plans.failures == 0, "plan_cost_sum list did not optimize");

  // Two mirrors, warmed like the server: the session work of every request
  // is replayed untraced on one and traced on the other.
  Mirror plain(catalog, w), traced(catalog, w);
  bool hit = false;
  uint64_t warmup_id = uint64_t{1} << 40;  // apart from the stream's ids
  for (const Req& r : w.Warmup()) {
    Replay(r, catalog, plain, nullptr, warmup_id, &hit);
    Replay(r, catalog, traced, &log, warmup_id++, &hit);
  }

  ServeStats before = inst->server->stats();
  std::unique_ptr<RequestStream> stream = w.Stream(catalog, args.seed);
  std::vector<double> untraced_us, traced_us, worker_us, return_us, handoff_us;
  uint64_t id = 0;
  int mirror_mismatches = 0;
  size_t arena_bytes = 0;  // the serving session's largest memo arena
  for (int round = 0; round < w.traced_rounds(); ++round) {
    for (const Req& req : stream->NextRound()) {
      std::promise<std::string> done;
      std::future<std::string> resp = done.get_future();
      int64_t callback_ns = 0;  // published to this thread by set_value
      int64_t s0 = NowNs();
      inst->server->Submit(req.text, [&](std::string body) {
        callback_ns = NowNs();
        done.set_value(std::move(body));
      });
      std::string body = resp.get();
      int64_t s2 = NowNs();
      SpanLog::Id root = log.Add("serve.request", s0, s2, SpanLog::kNone, id);
      log.Add("serve.worker", s0, callback_ns, root, id);
      log.Add("serve.return", callback_ns, s2, root, id);
      worker_us.push_back(NsToUs(callback_ns - s0));
      return_us.push_back(NsToUs(s2 - callback_ns));
      arena_bytes = std::max(arena_bytes, inst->server->SessionArenaBytes()[0]);
      uint64_t hits_before = check.hits();
      report->Op(check.Check(req, body));
      bool server_hit = check.hits() > hits_before;

      // Which mirror goes first alternates: the second finds warm caches.
      int64_t session_ns = 0;
      bool plain_hit = false, traced_hit = false;
      auto replay_plain = [&] {
        int64_t t0 = NowNs();
        Replay(req, catalog, plain, nullptr, id, &plain_hit);
        untraced_us.push_back(NsToUs(NowNs() - t0));
      };
      auto replay_traced = [&] {
        int64_t t0 = NowNs();
        session_ns = Replay(req, catalog, traced, &log, id, &traced_hit);
        traced_us.push_back(NsToUs(NowNs() - t0));
      };
      if (id % 2 == 0) {
        replay_plain();
        replay_traced();
      } else {
        replay_traced();
        replay_plain();
      }
      if (req.shape >= 0) {
        handoff_us.push_back(NsToUs(s2 - s0 - session_ns));
        if (plain_hit != server_hit || traced_hit != server_hit) {
          ++mirror_mismatches;
        }
      } else {  // a write: no session work to compare
        untraced_us.pop_back();
        traced_us.pop_back();
      }
      ++id;
    }
  }
  report->Gate(mirror_mismatches == 0,
               "replayed cache probes disagree with the server's");
  ServeStats after = inst->server->stats();
  uint64_t hits = after.cache_hits - before.cache_hits;
  uint64_t probes = hits + after.cache_misses - before.cache_misses;

  report->Metric("serve.handoff_p50_us", Median(handoff_us), "us");
  report->Metric("serve.worker_p50_us", Median(worker_us), "us");
  report->Metric("serve.return_p50_us", Median(return_us), "us");
  double normalize_us = Median(log.DurationsUs("sql.normalize"));
  double parse_us = Median(log.DurationsUs("sql.parse"));
  double probe_us = Median(log.DurationsUs("cache.probe"));
  report->Metric("sql.normalize_p50_us", normalize_us, "us");
  report->Metric("sql.parse_p50_us", parse_us, "us");
  report->Metric("cache.probe_p50_us", probe_us, "us");
  report->Metric("cache.hit_ratio",
                 probes == 0 ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(probes),
                 "ratio");
  report->Metric("cache.invalidations",
                 static_cast<double>(after.cache_invalidations -
                                     before.cache_invalidations),
                 "count");
  report->Metric("session.rebuilds",
                 static_cast<double>(after.model_rebuilds -
                                     before.model_rebuilds),
                 "count");
  report->Metric("session.rebuild_p50_us",
                 Median(log.DurationsUs("session.rebuild")), "us");
  std::vector<double> optimize_us = log.DurationsUs("search.optimize");
  report->Metric("search.optimize_p50_us", Quantile(optimize_us, 0.5), "us");
  report->Metric("search.optimize_p90_us", Quantile(optimize_us, 0.9), "us");
  ReportSearchTotals(plans, report);
  report->Metric("search.arena_bytes", static_cast<double>(arena_bytes),
                 "bytes");
  report->Metric("setup.model_build_s", Median(model_s), "s");
  report->Metric("setup.server_start_s", Median(start_s), "s");
  report->Metric("setup.warmup_s", Median(warmup_s), "s");
  report->Metric("trace.overhead_pct",
                 (Median(traced_us) / Median(untraced_us) - 1.0) * 100.0, "%");

  log.PrintSummary(stdout);
  std::printf("replayed normalize+parse+probe p50 %.3f us vs serve.worker p50 "
              "%.3f us\n",
              normalize_us + parse_us + probe_us, Median(worker_us));
  if (!args.spans_path.empty()) {
    report->Gate(log.Write(args.spans_path), "cannot write " + args.spans_path);
  }
}

}  // namespace

void RunServeHot(const Args& args, Report* report) {
  ServeHot w;
  args.trace ? RunServeTraced(w, args, report) : RunServe(w, args, report);
}

void RunServeChurn(const Args& args, Report* report) {
  ServeChurn w;
  args.trace ? RunServeTraced(w, args, report) : RunServe(w, args, report);
}

}  // namespace perfbench
