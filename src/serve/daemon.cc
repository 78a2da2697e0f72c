#include "serve/daemon.h"

#include <chrono>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "data/synthetic.h"
#include "engine/private_aggregates.h"
#include "engine/table.h"
#include "ml/trainer.h"
#include "obs/metrics.h"
#include "random/rng.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bolton {
namespace serve {

namespace {

using obs::HttpRequest;
using obs::HttpResponse;

struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* cancelled;
  obs::Histogram* request_seconds;
};

ServeMetrics& Metrics() {
  static ServeMetrics* m = new ServeMetrics{
      obs::MetricsRegistry::Default().GetCounter("serve.requests_total"),
      obs::MetricsRegistry::Default().GetCounter("serve.cancelled_total"),
      obs::MetricsRegistry::Default().GetHistogram(
          "serve.request_seconds", obs::LatencySecondsBuckets()),
  };
  return *m;
}

/// A response whose body is `body`'s document plus a newline.
HttpResponse JsonReply(int status, const JsonWriter& body) {
  HttpResponse response;
  response.status = status;
  response.body = body.str() + "\n";
  return response;
}

HttpResponse JsonError(int status, const char* code,
                       const std::string& detail) {
  JsonWriter w;
  w.BeginObject().Field("error", code).Field("detail", detail);
  return JsonReply(status, w.EndObject());
}

/// Maps an AdmissionController refusal onto the degradation ladder.
HttpResponse AdmissionRefusal(const Status& status) {
  if (status.code() == StatusCode::kFailedPrecondition) {
    return JsonError(429, "tenant_busy", status.message());
  }
  HttpResponse response = JsonError(503, "overloaded", status.message());
  response.headers.emplace_back("Retry-After",
                                std::to_string(obs::kRetryAfterSeconds));
  return response;
}

/// Reads a request's flat fields: after the first one of the wrong type,
/// the rest are skipped and `status` names it (answered 400).
struct FieldReader {
  template <typename V, typename T>
  void operator()(Result<V> result, T* out) {
    if (!status.ok()) return;
    if (result.ok()) {
      *out = result.value();
    } else {
      status = result.status();
    }
  }
  Status status;
};

/// The spend fields that end a private write's answer.
JsonWriter& WriteSpend(const TenantAccountView& account, JsonWriter* w) {
  w->Field("spent_epsilon", account.spent.epsilon);
  return w->Field("remaining_epsilon", account.budget.epsilon -
                                           account.spent.epsilon -
                                           account.reserved.epsilon);
}

/// Places the budget hold of a private write and sets `*hold_id`, or
/// returns the answer to a refusal: 429 budget_exhausted, 400 for a
/// malformed cost or tenant id, 500 when the write-ahead persist failed.
std::optional<HttpResponse> Reserve(TenantBudgetManager* budget,
                                    const std::string& tenant,
                                    const PrivacyParams& cost,
                                    const std::string& label,
                                    uint64_t* hold_id) {
  auto reserved = budget->Reserve(tenant, cost, label);
  if (reserved.ok()) {
    *hold_id = reserved.value();
    return std::nullopt;
  }
  const Status& status = reserved.status();
  if (status.code() == StatusCode::kFailedPrecondition) {
    const TenantAccountView account = budget->Account(tenant);
    JsonWriter w;
    w.BeginObject().Field("error", "budget_exhausted").Field("tenant", tenant);
    w.Field("budget_epsilon", account.budget.epsilon);
    w.Field("spent_epsilon", account.spent.epsilon);
    w.Field("reserved_epsilon", account.reserved.epsilon);
    return JsonReply(429, w.Field("detail", status.message()).EndObject());
  }
  if (status.code() == StatusCode::kInvalidArgument) {
    // Malformed (ε, δ) or tenant id in the request, not a server fault.
    return JsonError(400, "bad_request", status.message());
  }
  return JsonError(500, "budget_unavailable", status.message());
}

/// True for the algorithms whose only noise draw happens at release
/// (noiseless draws none at all): a run that ended without releasing —
/// cancelled, failed, injected fault — provably spent nothing and its hold
/// is refundable. The white-box baselines (SCS13/BST14/objective) perturb
/// during optimization, so a started run always commits.
bool RefundableOnFailure(Algorithm algorithm) {
  return algorithm == Algorithm::kNoiseless || algorithm == Algorithm::kBoltOn;
}

void WriteAccountView(const TenantAccountView& view, JsonWriter* w) {
  w->BeginObject().Field("tenant", view.tenant);
  w->Field("budget_epsilon", view.budget.epsilon);
  w->Field("budget_delta", view.budget.delta);
  w->Field("spent_epsilon", view.spent.epsilon);
  w->Field("spent_delta", view.spent.delta);
  w->Field("reserved_epsilon", view.reserved.epsilon);
  w->Field("reserved_delta", view.reserved.delta);
  w->Field("commits", view.commits).Field("refunds", view.refunds);
  w->Field("refusals", view.refusals).Field("recovered", view.recovered);
  w->EndObject();
}

/// The heap a dataset's rows hold: each row's Example and its features
/// (allocator overhead aside).
size_t DatasetBytes(const Dataset& data) {
  return data.size() * (sizeof(Example) + data.dim() * sizeof(double));
}

/// Tracks a request for drain accounting and latency metrics.
class RequestScope {
 public:
  RequestScope(std::mutex* mu, std::condition_variable* cv, size_t* inflight)
      : mu_(mu), cv_(cv), inflight_(inflight),
        start_(std::chrono::steady_clock::now()) {
    std::lock_guard<std::mutex> lock(*mu_);
    ++*inflight_;
  }
  ~RequestScope() {
    Metrics().request_seconds->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count());
    {
      std::lock_guard<std::mutex> lock(*mu_);
      --*inflight_;
    }
    cv_->notify_all();
  }

 private:
  std::mutex* mu_;
  std::condition_variable* cv_;
  size_t* inflight_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

ServeDaemon::ServeDaemon(const ServeOptions& options) : options_(options) {}

ServeDaemon::~ServeDaemon() { Shutdown(); }

Result<std::unique_ptr<ServeDaemon>> ServeDaemon::Start(
    const ServeOptions& options) {
  std::unique_ptr<ServeDaemon> daemon(new ServeDaemon(options));
  BOLTON_ASSIGN_OR_RETURN(daemon->budget_,
                          TenantBudgetManager::Open(options.budget));
  daemon->admission_.reset(new AdmissionController(options.admission));

  obs::ObsServerOptions server_options;
  server_options.port = options.port;
  server_options.io_timeout_ms = options.io_timeout_ms;
  server_options.handler_threads =
      options.handler_threads == 0 ? 1 : options.handler_threads;
  server_options.max_pending = options.max_pending;
  BOLTON_ASSIGN_OR_RETURN(daemon->server_,
                          obs::ObsServer::Start(server_options));

  ServeDaemon* d = daemon.get();
  const std::pair<const char*, PostHandler> posts[] = {
      {"/v1/train", &ServeDaemon::Train},
      {"/v1/predict", &ServeDaemon::Predict},
      {"/v1/aggregate", &ServeDaemon::Aggregate},
  };
  for (const auto& [path, handle] : posts) {
    daemon->server_->RegisterHandler(
        "POST", path, [d, handle = handle](const HttpRequest& request) {
          return d->HandlePost(request, handle);
        });
  }
  daemon->server_->RegisterHandler(
      "GET", "/v1/budget",
      [d](const HttpRequest& request) { return d->HandleBudget(request); });

  if (daemon->budget_->recovered_holds() > 0) {
    BOLTON_LOG(kWarning) << "serve: promoted "
                         << daemon->budget_->recovered_holds()
                         << " pending budget hold(s) to spend at startup";
  }
  return daemon;
}

void ServeDaemon::Shutdown() {
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.drain_timeout_ms),
        [this] { return inflight_ == 0; });
    if (inflight_ > 0) {
      BOLTON_LOG(kWarning) << "serve: drain window elapsed with " << inflight_
                           << " request(s) in flight; cancelling their runs";
    }
  }
  // Cut stragglers loose: every request token chains to this one, and the
  // solver polls it at batch boundaries. A cancelled private run releases
  // nothing (its hold is refunded), so cancellation never corrupts spend.
  drain_cancel_.Cancel();
  // Null when Start() failed before the server came up.
  if (server_ != nullptr) server_->Stop();
}

size_t ServeDaemon::cached_dataset_bytes() {
  std::lock_guard<std::mutex> lock(data_mu_);
  return dataset_bytes_;
}

size_t ServeDaemon::datasets_generated() {
  std::lock_guard<std::mutex> lock(data_mu_);
  return datasets_generated_;
}

Result<ServeDaemon::SharedDatasets> ServeDaemon::DatasetFor(
    const std::string& name, double scale, uint64_t seed) {
  if (!(scale > 0.0) || scale > options_.max_dataset_scale) {
    return Status::InvalidArgument(StrFormat(
        "scale must be in (0, %g], got %g", options_.max_dataset_scale,
        scale));
  }
  const DatasetKey key(name, scale, seed);
  // Made on a miss only: a promise allocates its shared state.
  std::optional<std::promise<Result<SharedDatasets>>> generation;
  {
    std::unique_lock<std::mutex> lock(data_mu_);
    auto it = dataset_index_.find(key);
    if (it != dataset_index_.end()) {
      datasets_.splice(datasets_.begin(), datasets_, it->second);
      return it->second->data;
    }
    auto [pending, first] = generating_.try_emplace(key);
    if (!first) {
      // Another request is generating this key: wait for its result
      // without holding up other keys' lookups.
      const std::shared_future<Result<SharedDatasets>> result =
          pending->second;
      lock.unlock();
      return result.get();
    }
    pending->second = generation.emplace().get_future().share();
    ++datasets_generated_;
  }
  Result<SharedDatasets> result = [&]() -> Result<SharedDatasets> {
    BOLTON_ASSIGN_OR_RETURN(auto generated, GenerateByName(name, scale, seed));
    return std::make_shared<const std::pair<Dataset, Dataset>>(
        std::move(generated));
  }();
  // Declared before the lock, so the evicted pairs are freed after
  // data_mu_ is released: freeing a large dataset never stalls another
  // request's lookup.
  std::vector<SharedDatasets> evicted;
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    generating_.erase(key);
    if (result.ok()) {
      const SharedDatasets& shared = result.value();
      const size_t bytes =
          DatasetBytes(shared->first) + DatasetBytes(shared->second);
      datasets_.push_front(CachedDataset{key, shared, bytes});
      dataset_index_[key] = datasets_.begin();
      dataset_bytes_ += bytes;
      // The newest pair stays even when it alone is over the budget.
      while (dataset_bytes_ > kDatasetCacheBytes && datasets_.size() > 1) {
        CachedDataset& oldest = datasets_.back();
        dataset_bytes_ -= oldest.bytes;
        dataset_index_.erase(oldest.key);
        evicted.push_back(std::move(oldest.data));
        datasets_.pop_back();
      }
    }
  }
  generation->set_value(result);
  return result;
}

HttpResponse ServeDaemon::HandlePost(const HttpRequest& request,
                                     PostHandler handle) {
  Metrics().requests->Increment();
  if (draining_.load(std::memory_order_acquire)) {
    return JsonError(503, "draining", "daemon is shutting down");
  }
  RequestScope scope(&inflight_mu_, &inflight_cv_, &inflight_);

  auto parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    return JsonError(400, "bad_request", parsed.status().message());
  }
  auto tenant = parsed.value().GetString("tenant", "");
  if (!tenant.ok()) return JsonError(400, "bad_request", tenant.status().message());
  if (tenant.value().empty()) {
    return JsonError(400, "bad_request", "missing required field: tenant");
  }
  return (this->*handle)(parsed.value(), tenant.value());
}

HttpResponse ServeDaemon::Train(const JsonValue& body,
                                const std::string& tenant) {
  // Flat-field extraction; any type mismatch answers 400 naming the field.
  TrainerConfig config;
  std::string dataset_name, algorithm_name, model_name;
  double scale = 0.0, epsilon = 0.0, delta = 0.0;
  int64_t data_seed = 0, train_seed = 0, timeout_ms = 0, positive_class = 0;
  int64_t passes = 0, batch_size = 0, shards = 0;
  FieldReader bind;
  bind(body.GetString("dataset", "protein"), &dataset_name);
  bind(body.GetString("algorithm", "bolton"), &algorithm_name);
  bind(body.GetString("model", "logistic"), &model_name);
  bind(body.GetNumber("scale", 0.01), &scale);
  bind(body.GetNumber("epsilon", 1.0), &epsilon);
  bind(body.GetNumber("delta", 1e-6), &delta);
  bind(body.GetNumber("lambda", 0.01), &config.lambda);
  bind(body.GetInt("passes", 3), &passes);
  bind(body.GetInt("batch_size", 50), &batch_size);
  bind(body.GetInt("shards", 1), &shards);
  bind(body.GetInt("data_seed", 42), &data_seed);
  bind(body.GetInt("seed", 1), &train_seed);
  bind(body.GetInt("timeout_ms", 0), &timeout_ms);
  bind(body.GetInt("positive_class", 0), &positive_class);
  if (!bind.status.ok()) {
    return JsonError(400, "bad_request", bind.status.message());
  }
  if (passes < 1 || batch_size < 1 || shards < 1 || timeout_ms < 0) {
    return JsonError(400, "bad_request",
                     "passes, batch_size, shards must be >= 1 and "
                     "timeout_ms >= 0");
  }

  auto algorithm = ParseAlgorithm(algorithm_name);
  if (!algorithm.ok()) {
    return JsonError(400, "bad_request", algorithm.status().message());
  }
  if (model_name == "logistic") {
    config.model = ModelKind::kLogistic;
  } else if (model_name == "huber_svm") {
    config.model = ModelKind::kHuberSvm;
  } else {
    return JsonError(400, "bad_request",
                     "model must be \"logistic\" or \"huber_svm\"");
  }
  config.algorithm = algorithm.value();
  config.privacy = PrivacyParams{epsilon, delta};
  config.passes = static_cast<size_t>(passes);
  config.batch_size = static_cast<size_t>(batch_size);
  config.shards = static_cast<size_t>(shards);
  config.executor.max_threads = options_.max_training_threads;
  // Parameters the solver refuses before any noise are refused here, before
  // the budget hold, so they spend nothing.
  auto loss = MakeLossForConfig(config);
  Status refused = loss.ok() ? CheckSolverParameters(config.algorithm,
                                                     *loss.value(), config)
                             : loss.status();
  if (!refused.ok()) return JsonError(400, "bad_request", refused.message());

  // Admission: refuse-fast before any expensive work.
  auto ticket = admission_->Admit(tenant);
  if (!ticket.ok()) {
    return AdmissionRefusal(ticket.status());
  }

  auto data = DatasetFor(dataset_name, scale,
                         static_cast<uint64_t>(data_seed));
  if (!data.ok()) {
    const int status =
        data.status().code() == StatusCode::kNotFound ? 404 : 400;
    return JsonError(status, "bad_dataset", data.status().message());
  }
  const Dataset& full_train = data.value()->first;
  Dataset binary_view;
  const Dataset* train = &full_train;
  if (full_train.num_classes() > 2) {
    if (positive_class < 0 || positive_class >= full_train.num_classes()) {
      return JsonError(400, "bad_request",
                       "positive_class out of range for this dataset");
    }
    binary_view = full_train.OneVsAllView(static_cast<int>(positive_class));
    train = &binary_view;
  }

  // Budget: write-ahead reserve before the run. Noiseless runs release
  // nothing private and spend nothing. A label holds no whitespace, which
  // the state file would store as '_'.
  const bool is_private = config.algorithm != Algorithm::kNoiseless;
  uint64_t hold_id = 0;
  if (is_private) {
    if (auto refused = Reserve(budget_.get(), tenant, config.privacy,
                               StrFormat("train:%s/%s", dataset_name.c_str(),
                                         AlgorithmName(config.algorithm)),
                               &hold_id)) {
      return *refused;
    }
  }

  // Fault gate between reserve and the run: an injected dispatch error
  // aborts before any work (and before any noise), so the hold refunds.
  Status dispatch = FailpointRegistry::Default().Evaluate("serve.dispatch");
  if (!dispatch.ok()) {
    if (is_private) budget_->Refund(hold_id).CheckOK();
    return JsonError(500, "dispatch_failed", dispatch.message());
  }

  // Deadline propagation: the request token chains under the daemon's
  // drain token, and the solver polls it at batch boundaries.
  CancellationToken cancel(&drain_cancel_);
  const uint64_t effective_timeout =
      timeout_ms > 0 ? static_cast<uint64_t>(timeout_ms)
                     : options_.default_timeout_ms;
  if (effective_timeout > 0) cancel.SetTimeout(effective_timeout);
  config.executor.cancel = &cancel;

  const auto started = std::chrono::steady_clock::now();
  Rng rng(static_cast<uint64_t>(train_seed));
  auto trained = RunPrivateSolver(config.algorithm, *train, *loss.value(),
                                  config, &rng);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();

  if (!trained.ok()) {
    const bool cancelled =
        trained.status().code() == StatusCode::kCancelled;
    if (cancelled) Metrics().cancelled->Increment();
    if (is_private) {
      if (RefundableOnFailure(config.algorithm)) {
        // Bolt-on draws noise only at release; a run that ended early
        // released nothing, so the hold refunds.
        budget_->Refund(hold_id).CheckOK();
      } else {
        // White-box noise is already in the world — commit the spend.
        budget_->Commit(hold_id).CheckOK();
      }
    }
    if (cancelled) {
      return JsonError(408, "timeout", trained.status().message());
    }
    if (trained.status().code() == StatusCode::kInvalidArgument) {
      // The trainer refused the request's parameters: a client error.
      return JsonError(400, "bad_request", trained.status().message());
    }
    return JsonError(500, "train_failed", trained.status().message());
  }
  // Reserve() admitted the hold, so its commit cannot refuse.
  if (is_private) budget_->Commit(hold_id).CheckOK();

  std::string model_id;
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    model_id = StrFormat("%s-%llu", tenant.c_str(),
                         static_cast<unsigned long long>(next_model_seq_++));
    StoredModel stored;
    stored.tenant = tenant;
    stored.weights = std::move(trained).value().model;
    stored.algorithm = AlgorithmName(config.algorithm);
    stored.dataset = dataset_name;
    models_[model_id] = std::move(stored);
  }

  JsonWriter w;
  w.BeginObject().Field("model_id", model_id).Field("tenant", tenant);
  w.Field("algorithm", AlgorithmName(config.algorithm));
  w.Field("dataset", dataset_name).Field("dim", train->dim());
  w.Key("elapsed_ms").Fixed(elapsed_ms, 3);
  w.Field("epsilon", is_private ? epsilon : 0.0);
  w.Field("delta", is_private ? delta : 0.0);
  return JsonReply(200, WriteSpend(budget_->Account(tenant), &w).EndObject());
}

HttpResponse ServeDaemon::Predict(const JsonValue& body,
                                  const std::string& tenant) {
  auto model_id = body.GetString("model_id", "");
  if (!model_id.ok()) {
    return JsonError(400, "bad_request", model_id.status().message());
  }
  if (model_id.value().empty()) {
    return JsonError(400, "bad_request", "missing required field: model_id");
  }
  const JsonValue* features = body.Find("features");
  if (features == nullptr || !features->is_array()) {
    return JsonError(400, "bad_request",
                     "missing required array field: features");
  }

  Vector x(features->array_items().size());
  for (size_t i = 0; i < features->array_items().size(); ++i) {
    const JsonValue& item = features->array_items()[i];
    if (!item.is_number()) {
      return JsonError(400, "bad_request", "features must all be numbers");
    }
    x[i] = item.number_value();
  }

  Vector weights;
  std::string algorithm;
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    auto it = models_.find(model_id.value());
    // A foreign tenant's model id answers the same 404 as a missing one:
    // existence of another tenant's model is not disclosed.
    if (it == models_.end() || it->second.tenant != tenant) {
      return JsonError(404, "model_not_found",
                       "no such model for this tenant");
    }
    weights = it->second.weights;
    algorithm = it->second.algorithm;
  }
  if (weights.dim() != x.dim()) {
    return JsonError(400, "bad_request",
                     StrFormat("features dim %zu != model dim %zu", x.dim(),
                               weights.dim()));
  }
  // The released model is already differentially private (or noiseless by
  // request); scoring it is post-processing and spends no budget.
  const double score = Dot(weights, x);
  // Finite features can still overflow the dot product to ±inf or NaN.
  if (!std::isfinite(score)) {
    return JsonError(400, "bad_request", "features overflow the model score");
  }
  JsonWriter w;
  w.BeginObject().Field("model_id", model_id.value());
  w.Field("algorithm", algorithm).Field("score", score);
  w.Field("prediction", score >= 0.0 ? 1 : -1);
  return JsonReply(200, w.EndObject());
}

HttpResponse ServeDaemon::Aggregate(const JsonValue& body,
                                    const std::string& tenant) {
  std::string dataset_name, op;
  double scale = 0.0, epsilon = 0.0, delta = 0.0;
  int64_t data_seed = 0, noise_seed = 0, column = 0;
  FieldReader bind;
  bind(body.GetString("dataset", "protein"), &dataset_name);
  bind(body.GetString("op", "count"), &op);
  bind(body.GetNumber("scale", 0.01), &scale);
  bind(body.GetNumber("epsilon", 0.1), &epsilon);
  bind(body.GetNumber("delta", 0.0), &delta);
  bind(body.GetInt("data_seed", 42), &data_seed);
  bind(body.GetInt("seed", 1), &noise_seed);
  bind(body.GetInt("column", 0), &column);
  if (!bind.status.ok()) {
    return JsonError(400, "bad_request", bind.status.message());
  }
  if (op != "count" && op != "feature_mean") {
    return JsonError(400, "bad_request",
                     "op must be \"count\" or \"feature_mean\"");
  }

  auto ticket = admission_->Admit(tenant);
  if (!ticket.ok()) {
    return AdmissionRefusal(ticket.status());
  }

  auto data = DatasetFor(dataset_name, scale,
                         static_cast<uint64_t>(data_seed));
  if (!data.ok()) {
    const int status =
        data.status().code() == StatusCode::kNotFound ? 404 : 400;
    return JsonError(status, "bad_dataset", data.status().message());
  }
  // The table reads the cached training rows in place, and its pointer
  // keeps them alive should the cache evict them before the scan ends.
  auto table = MakeTable(
      std::shared_ptr<const Dataset>(data.value(), &data.value()->first),
      StorageMode::kMemory);
  if (!table.ok()) {
    return JsonError(500, "table_failed", table.status().message());
  }
  if (op == "feature_mean" &&
      (column < 0 ||
       static_cast<size_t>(column) >= table.value()->dim())) {
    return JsonError(400, "bad_request", "column out of range");
  }

  const PrivacyParams cost{epsilon, delta};
  uint64_t hold_id = 0;
  if (auto refused = Reserve(
          budget_.get(), tenant, cost,
          StrFormat("aggregate:%s/%s", dataset_name.c_str(), op.c_str()),
          &hold_id)) {
    return *refused;
  }

  Rng rng(static_cast<uint64_t>(noise_seed));
  Result<PrivateScalar> released =
      op == "count"
          ? PrivateCount(*table.value(), cost, &rng)
          : PrivateFeatureMean(*table.value(), static_cast<size_t>(column),
                               cost, &rng);
  if (!released.ok()) {
    // The aggregate failed before releasing anything — refundable.
    budget_->Refund(hold_id).CheckOK();
    return JsonError(500, "aggregate_failed", released.status().message());
  }
  budget_->Commit(hold_id).CheckOK();
  JsonWriter w;
  w.BeginObject().Field("op", op).Field("dataset", dataset_name);
  w.Field("value", released.value().noisy);
  w.Field("epsilon", epsilon).Field("delta", delta);
  return JsonReply(200, WriteSpend(budget_->Account(tenant), &w).EndObject());
}

HttpResponse ServeDaemon::HandleBudget(const HttpRequest& request) {
  Metrics().requests->Increment();
  const std::string tenant = request.QueryParam("tenant").value_or("");
  JsonWriter w;
  if (!tenant.empty()) {
    WriteAccountView(budget_->Account(tenant), &w);
    return JsonReply(200, w);
  }
  w.BeginArray();
  for (const TenantAccountView& view : budget_->Snapshot()) {
    WriteAccountView(view, &w);
  }
  return JsonReply(200, w.EndArray());
}

}  // namespace serve
}  // namespace bolton
