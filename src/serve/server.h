// Optimizer-as-a-service: a fault-hardened multi-query serving loop.
//
// `vopt serve` turns the one-shot optimizer into a long-lived process: a
// stream of line-delimited requests (SQL text, plus a small `!`-prefixed
// admin vocabulary) is answered with one JSON object per line. The server
// composes the robustness mechanisms built in earlier PRs into a loop that
// survives hostile traffic:
//
//  * per-request budgets — every request runs under ServerOptions::budget
//    with the full degradation ladder (anytime incumbent -> greedy descent
//    -> EXODUS baseline), so a pathological query returns a degraded plan
//    or a structured error, never a hung worker;
//  * admission control — requests beyond `max_inflight` are shed immediately
//    with an OVERLOADED response instead of queueing without bound;
//  * crash isolation — every Status error path (malformed request, unknown
//    relation, budget exhaustion, impossible goal) becomes a structured
//    error response; no request input tears down the process;
//  * a cross-query plan cache — (normalized SQL signature, catalog version)
//    -> the hit response's bytes after its id, rendered once at insert and
//    byte-identical to the cold response apart from "cached" (see
//    plan_cache.h);
//  * memory robustness — each worker recycles one Optimizer's memo arena
//    across requests (session.h), keeping steady-state footprint flat.
//
// Request protocol (one request per line; empty lines are ignored):
//   <SQL text>                 optimize; response carries the plan
//   !bump                      advance the catalog version (simulates DDL /
//                              statistics refresh); invalidates the cache
//   !distinct <attr> <count>   update an attribute statistic (bumps version)
//   !stats                     report ServeStats as JSON
//
// Response schema (single line of JSON):
//   {"id": N, "ok": true, "cached": B, "degraded": B, "source": S,
//    "catalog_version": V, "algebra": "...", "required": "...",
//    "plan": "...", "cost": "..."}                       -- plan responses
//   {"id": N, "ok": true, "admin": "...", "catalog_version": V}
//   {"id": N, "ok": true, "serve": {...}}                -- !stats
//   {"id": N, "ok": false, "error": {"code": C, "message": "...",
//    "details": {...}}}                                  -- structured error
//   {"id": N, "ok": false, "shed": true, "error": {"code": "OVERLOADED",
//    ...}}                                               -- admission shed
//
// Threading: `workers` threads each own a Session. The catalog is guarded
// by a reader/writer lock — normalization, cache probes and optimizations
// hold it shared, version bumps hold it exclusive, and sessions re-derive
// their models lazily after a bump. A request is served in two halves. The
// front half needs no session: fault injection, admin commands,
// NormalizeSql and the plan-cache probe; a hit is answered right there. The
// session half parses, optimizes and inserts a miss. When nothing is queued
// or running, Submit runs the front half on the calling thread, so an idle
// hit never touches a worker, and queues only a miss, with its signature and
// probed version (the worker probes again only if the catalog version moved
// in between). Otherwise the request queues whole and a worker runs both
// halves. Responses from workers are delivered by callback on the worker
// thread, tagged with the request id (completion order is unspecified
// across workers; a single worker answers in FIFO order).

#ifndef VOLCANO_SERVE_SERVER_H_
#define VOLCANO_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "relational/catalog.h"
#include "relational/rel_model.h"
#include "search/search_options.h"
#include "serve/plan_cache.h"
#include "serve/serve_stats.h"
#include "support/budget.h"
#include "support/fault.h"

namespace volcano::serve {

struct ServerOptions {
  /// Worker threads (each with its own Session). Must be >= 1.
  int workers = 1;

  /// Admission cap: maximum requests queued or running. A Submit beyond the
  /// cap is answered OVERLOADED without queueing.
  size_t max_inflight = 64;

  /// Plan-cache entries; 0 disables caching.
  size_t cache_capacity = 1024;

  /// Per-request optimization budget (deadline / memo / call caps).
  OptimizationBudget budget;

  /// Base search configuration. The budget field is overridden per request;
  /// degradation is forced to kAnytime (the serving loop owns the ladder).
  /// A fault injector placed here reaches the search engine of every
  /// session — with workers > 1 its RNG would race, so search-level fault
  /// injection is only supported single-worker (the serve-layer injector
  /// below is always safe).
  SearchOptions search;

  /// Relational-model configuration shared by all sessions.
  rel::RelModelOptions model;

  /// Serving-layer fault injector (malformed requests, mid-request budget
  /// trips, cache-poisoning catalog bumps); consulted once per request
  /// under a server-held mutex. Not owned; null in production.
  FaultInjector* fault = nullptr;

  /// Retry budget-exhausted requests once against the EXODUS baseline (the
  /// ladder's last rung).
  bool exodus_fallback = true;

  /// Append per-request search stats + outcome JSON to cold plan responses.
  bool stats_in_response = false;
};

class Server {
 public:
  /// The catalog is shared, borrowed state: it must outlive the server, and
  /// all mutations while the server runs must go through the request
  /// protocol (or BumpCatalog) so cache invalidation and model re-derivation
  /// stay coherent.
  Server(rel::Catalog* catalog, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits one request line. `done` is invoked exactly once with the
  /// response JSON. It runs on this thread, before Submit returns, when the
  /// request is shed by admission control, and when the server was idle and
  /// the request needed no session (a cache hit, an admin command, or a
  /// line that does not normalize). Otherwise it runs later on a worker
  /// thread. Returns false iff the request was shed.
  bool Submit(std::string line, std::function<void(std::string)> done);

  /// Synchronous convenience: Submit + wait. Used by tests and single-shot
  /// tools; subject to the same admission control.
  std::string HandleLine(std::string line);

  /// Pumps line-delimited requests from `in` until EOF or a `!quit` line,
  /// writing one JSON response per line to `out` (completion order). Drains
  /// in-flight work before returning. Returns the number of requests served.
  uint64_t Serve(std::istream& in, std::ostream& out);

  /// Blocks until no requests are queued or running.
  void Drain();

  /// Advances the catalog version and invalidates stale cache entries.
  /// Safe to call while requests are in flight.
  uint64_t BumpCatalog();

  /// Aggregated serving counters (cache counters folded in).
  ServeStats stats() const;

  uint64_t catalog_version() const;

  /// Arena footprint of each worker session after its most recent request —
  /// the plateau telemetry the soak tests assert on. Snapshot; exact only
  /// when quiescent (call Drain first).
  std::vector<size_t> SessionArenaBytes() const;

  const ServerOptions& options() const { return options_; }

 private:
  /// A SQL request that missed the cache in the front half: what the
  /// session half needs to finish it without normalizing or probing again.
  struct Miss {
    std::string signature;
    uint64_t version = 0;  ///< catalog version of the probe
    OptimizationBudget budget;
  };

  struct Request {
    uint64_t id;
    std::string line;
    std::function<void(std::string)> done;
    std::optional<Miss> miss;  ///< set once the front half has run
  };

  void WorkerLoop(int worker_index);
  /// Retires one accepted request from the in-flight count.
  void Finished();
  /// Both halves for a queued request; the front half only if it has not
  /// run on the submitting thread.
  std::string Process(class Session& session, Request& req);
  /// The front half (needs no session). Returns the response, or nullopt
  /// with `*miss` filled when the session half must finish the request.
  /// May rewrite `line` (fault-injected malformation).
  std::optional<std::string> Front(uint64_t id, std::string& line,
                                   Miss* miss);
  /// Probes the plan cache at `version`; a hit is request `id`'s complete
  /// response, counted as served from the cache.
  std::optional<std::string> ProbeCache(uint64_t id,
                                        const std::string& signature,
                                        uint64_t version);
  std::string ProcessAdmin(uint64_t id, const std::string& line);
  /// The session half: parse, optimize and cache one missed request.
  std::string ProcessSql(Session& session, uint64_t id,
                         const std::string& sql, const Miss& miss);

  rel::Catalog* catalog_;
  ServerOptions options_;
  PlanCache cache_;

  // Guards the catalog: optimizations shared, version bumps exclusive.
  mutable std::shared_mutex catalog_mu_;

  // Request queue + admission control.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<Request> queue_;
  size_t inflight_ = 0;  // queued + running
  uint64_t next_id_ = 1;
  bool stopping_ = false;

  // Serving counters (cache counters live in cache_).
  mutable std::mutex stats_mu_;
  ServeStats stats_;

  // Serving-layer fault injector access (shared RNG).
  std::mutex fault_mu_;

  // Per-worker arena telemetry, written by the owning worker only.
  std::unique_ptr<std::atomic<size_t>[]> session_arena_bytes_;

  std::vector<std::thread> workers_;
};

}  // namespace volcano::serve

#endif  // VOLCANO_SERVE_SERVER_H_
