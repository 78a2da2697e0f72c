#ifndef BOLTON_SERVE_DAEMON_H_
#define BOLTON_SERVE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "data/dataset.h"
#include "linalg/vector.h"
#include "obs/http_server.h"
#include "serve/admission.h"
#include "serve/budget.h"
#include "util/cancellation.h"
#include "util/json.h"
#include "util/result.h"

namespace bolton {
namespace serve {

/// Everything `boltondp serve` configures.
struct ServeOptions {
  /// 127.0.0.1:`port`; 0 = ephemeral (the bound port is printed/queryable).
  int port = 0;
  /// Concurrent HTTP handler threads.
  size_t handler_threads = 4;
  /// Accepted connections queued beyond this are shed with 503.
  size_t max_pending = 16;
  /// Per-connection socket I/O deadline.
  int io_timeout_ms = 5000;
  /// Executing-request caps (global + per tenant).
  AdmissionOptions admission;
  /// Per-tenant budget accounts + persistence.
  TenantBudgetOptions budget;
  /// Deadline applied to requests that do not send `timeout_ms` themselves
  /// (0 = no default deadline). A request's own timeout_ms wins.
  uint64_t default_timeout_ms = 0;
  /// How long Shutdown() waits for in-flight requests before cancelling
  /// the stragglers' solver runs.
  uint64_t drain_timeout_ms = 5000;
  /// Training threads the worker pool may use per request (the
  /// ExecutorConfig max_threads cap); 0 = auto.
  size_t max_training_threads = 0;
  /// Cap on `scale` accepted from requests, so one tenant cannot ask the
  /// daemon to synthesize a multi-gigabyte dataset.
  double max_dataset_scale = 1.0;
};

/// The multi-tenant private-analytics daemon behind `boltondp serve`.
///
/// Mounts a JSON API on the in-process obs::ObsServer (which also keeps
/// serving /metrics, /healthz, /ledger, ...):
///
///   POST /v1/train      {"tenant","dataset","algorithm","epsilon",...}
///                       trains one binary model through the core solver
///                       dispatch on the shared worker pool; private
///                       algorithms spend tenant budget (reserve → train →
///                       commit). 200 {"model_id",...} | 400 | 408 timeout
///                       | 429 budget_exhausted/tenant_busy | 503.
///   POST /v1/predict    {"tenant","model_id","features":[...]} scores a
///                       model previously trained by the same tenant. The
///                       released model is already private, so prediction
///                       is budget-free. 200 {"prediction","score"}.
///   POST /v1/aggregate  {"tenant","dataset","op":"count"|"feature_mean",
///                       "epsilon",...} answers a private aggregate (§4.6
///                       multi-query setting) under the same budget.
///   GET  /v1/budget     [?tenant=t] account views: budget, spent,
///                       reserved, commits/refunds/refusals/recovered.
///
/// Budget protocol per request (private algorithms): Reserve persists a
/// write-ahead hold before any work; Commit converts it to spend after the
/// noisy release; a run that provably released nothing (cancelled, failed,
/// or refused before the noise draw — black-box algorithms only) Refunds.
/// White-box runs (scs13/bst14/objective) draw noise during optimization,
/// so any run that started commits even on failure.
///
/// Degradation ladder: full pending queue → 503 at accept (ObsServer);
/// global in-flight cap → 503; per-tenant cap → 429 tenant_busy;
/// over-budget → 429 budget_exhausted; deadline → 408 with the solver run
/// cancelled cooperatively (ExecutorConfig.cancel). Idle cost follows the
/// shared pool's idle-timeout spin-down: a quiet daemon holds no worker
/// threads.
class ServeDaemon {
 public:
  static Result<std::unique_ptr<ServeDaemon>> Start(
      const ServeOptions& options);

  ~ServeDaemon();

  /// The bound port.
  int port() const { return server_->port(); }

  /// Graceful drain: refuse new requests (503 "draining"), wait up to
  /// drain_timeout_ms for in-flight requests, then cancel stragglers'
  /// solver runs, stop the HTTP server, and flush budget state. Idempotent.
  void Shutdown();

  TenantBudgetManager& budget() { return *budget_; }
  AdmissionController& admission() { return *admission_; }
  obs::ObsServer& server() { return *server_; }

  /// Bytes of generated datasets the daemon keeps between requests. Past
  /// it the least recently used go. It holds both datasets of every
  /// perfbench serve workload and two full-scale protein sets; a dataset
  /// larger than it is still served, and kept alone until the next one.
  static constexpr size_t kDatasetCacheBytes = size_t{128} << 20;

  /// What the dataset cache holds now, by the estimate it evicts on.
  size_t cached_dataset_bytes();

  /// Dataset generations started so far: one per cold key, however many
  /// requests miss on it at once.
  size_t datasets_generated();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

 private:
  struct StoredModel {
    std::string tenant;
    Vector weights;
    std::string algorithm;
    std::string dataset;
  };

  /// A POST endpoint's body, called with the request's parsed JSON and its
  /// tenant.
  using PostHandler = obs::HttpResponse (ServeDaemon::*)(
      const JsonValue& body, const std::string& tenant);

  explicit ServeDaemon(const ServeOptions& options);

  /// The prologue every POST endpoint shares: counts the request, answers
  /// 503 while draining, holds a drain scope for the call, parses the JSON
  /// body and reads its required "tenant" field, then answers with
  /// `handle`.
  obs::HttpResponse HandlePost(const obs::HttpRequest& request,
                               PostHandler handle);
  obs::HttpResponse Train(const JsonValue& body, const std::string& tenant);
  obs::HttpResponse Predict(const JsonValue& body, const std::string& tenant);
  obs::HttpResponse Aggregate(const JsonValue& body,
                              const std::string& tenant);
  obs::HttpResponse HandleBudget(const obs::HttpRequest& request);

  /// A generated (train, test) pair, shared by the cache and every request
  /// reading it: an evicted pair lives on until its last request ends.
  using SharedDatasets = std::shared_ptr<const std::pair<Dataset, Dataset>>;
  /// (name, scale, seed): the scale's exact value, since two scales that
  /// print alike can generate different row counts.
  using DatasetKey = std::tuple<std::string, double, uint64_t>;
  struct CachedDataset {
    DatasetKey key;
    SharedDatasets data;
    size_t bytes;
  };

  /// The shared synthetic-dataset cache, within kDatasetCacheBytes: a hit
  /// generates nothing. The first miss on a key generates it outside
  /// data_mu_; requests that miss on that key meanwhile wait for its
  /// result, also outside data_mu_. A failed generation is not cached:
  /// its waiters get its status and the next request tries again.
  Result<SharedDatasets> DatasetFor(const std::string& name, double scale,
                                    uint64_t seed);

  ServeOptions options_;
  std::unique_ptr<TenantBudgetManager> budget_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<obs::ObsServer> server_;

  /// Root of every request's cancellation chain: Shutdown() cancels it to
  /// cut stragglers loose after the drain window.
  CancellationToken drain_cancel_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  size_t inflight_ = 0;

  std::mutex data_mu_;
  std::list<CachedDataset> datasets_;  // most recently used first
  std::map<DatasetKey, std::list<CachedDataset>::iterator> dataset_index_;
  size_t dataset_bytes_ = 0;
  /// Keys being generated, with the result their waiters read.
  std::map<DatasetKey, std::shared_future<Result<SharedDatasets>>>
      generating_;
  size_t datasets_generated_ = 0;

  std::mutex models_mu_;
  std::map<std::string, StoredModel> models_;
  uint64_t next_model_seq_ = 1;
};

}  // namespace serve
}  // namespace bolton

#endif  // BOLTON_SERVE_DAEMON_H_
