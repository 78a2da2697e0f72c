#include "serve/daemon.h"

#include <chrono>
#include <cmath>
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
  obs::Counter* draining;
  obs::Histogram* request_seconds;
};

ServeMetrics& Metrics() {
  static ServeMetrics* m = new ServeMetrics{
      obs::MetricsRegistry::Default().GetCounter("serve.requests_total"),
      obs::MetricsRegistry::Default().GetCounter("serve.cancelled_total"),
      obs::MetricsRegistry::Default().GetCounter("serve.draining_total"),
      obs::MetricsRegistry::Default().GetHistogram(
          "serve.request_seconds", obs::LatencySecondsBuckets()),
  };
  return *m;
}

HttpResponse JsonError(int status, const char* code,
                       const std::string& detail) {
  HttpResponse response;
  response.status = status;
  response.body = StrFormat("{\"error\":\"%s\",\"detail\":\"%s\"}\n", code,
                            JsonEscape(detail).c_str());
  return response;
}

HttpResponse JsonOk(std::string body) {
  HttpResponse response;
  response.body = std::move(body);
  return response;
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

HttpResponse BudgetRefusal(const std::string& tenant,
                           const TenantAccountView& account,
                           const Status& status) {
  HttpResponse response;
  response.status = 429;
  response.body = StrFormat(
      "{\"error\":\"budget_exhausted\",\"tenant\":\"%s\","
      "\"budget_epsilon\":%g,\"spent_epsilon\":%g,\"reserved_epsilon\":%g,"
      "\"detail\":\"%s\"}\n",
      JsonEscape(tenant).c_str(), account.budget.epsilon,
      account.spent.epsilon, account.reserved.epsilon,
      JsonEscape(status.message()).c_str());
  return response;
}

/// True for the algorithms whose only noise draw happens at release
/// (noiseless draws none at all): a run that ended without releasing —
/// cancelled, failed, injected fault — provably spent nothing and its hold
/// is refundable. The white-box baselines (SCS13/BST14/objective) perturb
/// during optimization, so a started run always commits.
bool RefundableOnFailure(Algorithm algorithm) {
  return algorithm == Algorithm::kNoiseless || algorithm == Algorithm::kBoltOn;
}

std::string RenderAccountView(const TenantAccountView& view) {
  return StrFormat(
      "{\"tenant\":\"%s\",\"budget_epsilon\":%g,\"budget_delta\":%g,"
      "\"spent_epsilon\":%.12g,\"spent_delta\":%.12g,"
      "\"reserved_epsilon\":%.12g,\"reserved_delta\":%.12g,"
      "\"commits\":%llu,\"refunds\":%llu,\"refusals\":%llu,"
      "\"recovered\":%llu}",
      JsonEscape(view.tenant).c_str(), view.budget.epsilon, view.budget.delta,
      view.spent.epsilon, view.spent.delta, view.reserved.epsilon,
      view.reserved.delta, static_cast<unsigned long long>(view.commits),
      static_cast<unsigned long long>(view.refunds),
      static_cast<unsigned long long>(view.refusals),
      static_cast<unsigned long long>(view.recovered));
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
  daemon->server_->RegisterHandler(
      "POST", "/v1/train",
      [d](const HttpRequest& request) { return d->HandleTrain(request); });
  daemon->server_->RegisterHandler(
      "POST", "/v1/predict",
      [d](const HttpRequest& request) { return d->HandlePredict(request); });
  daemon->server_->RegisterHandler(
      "POST", "/v1/aggregate",
      [d](const HttpRequest& request) { return d->HandleAggregate(request); });
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

Result<std::shared_ptr<const std::pair<Dataset, Dataset>>>
ServeDaemon::DatasetFor(const std::string& name, double scale, uint64_t seed) {
  if (!(scale > 0.0) || scale > options_.max_dataset_scale) {
    return Status::InvalidArgument(StrFormat(
        "scale must be in (0, %g], got %g", options_.max_dataset_scale,
        scale));
  }
  const std::string key =
      StrFormat("%s@%.6g#%llu", name.c_str(), scale,
                static_cast<unsigned long long>(seed));
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    auto it = datasets_.find(key);
    if (it != datasets_.end()) return it->second;
  }
  // Generated outside the lock: two tenants racing on a cold key both
  // generate (identical seeds → identical data); one insert wins.
  BOLTON_ASSIGN_OR_RETURN(auto generated, GenerateByName(name, scale, seed));
  auto shared = std::make_shared<const std::pair<Dataset, Dataset>>(
      std::move(generated));
  std::lock_guard<std::mutex> lock(data_mu_);
  auto inserted = datasets_.emplace(key, std::move(shared));
  return inserted.first->second;
}

HttpResponse ServeDaemon::HandleTrain(const HttpRequest& request) {
  Metrics().requests->Increment();
  if (draining_.load(std::memory_order_acquire)) {
    Metrics().draining->Increment();
    return JsonError(503, "draining", "daemon is shutting down");
  }
  RequestScope scope(&inflight_mu_, &inflight_cv_, &inflight_);

  auto parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    return JsonError(400, "bad_request", parsed.status().message());
  }
  const JsonValue& body = parsed.value();

  auto tenant = body.GetString("tenant", "");
  if (!tenant.ok()) return JsonError(400, "bad_request", tenant.status().message());
  if (tenant.value().empty()) {
    return JsonError(400, "bad_request", "missing required field: tenant");
  }

  // Flat-field extraction; any type mismatch answers 400 naming the field.
  TrainerConfig config;
  std::string dataset_name, algorithm_name, model_name;
  double scale = 0.0, epsilon = 0.0, delta = 0.0;
  int64_t data_seed = 0, train_seed = 0, timeout_ms = 0, positive_class = 0;
  int64_t passes = 0, batch_size = 0, shards = 0;
  Status field = Status::OK();
  {
    auto bind = [&field](auto result, auto* out) {
      if (field.ok()) {
        if (result.ok()) {
          *out = result.value();
        } else {
          field = result.status();
        }
      }
    };
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
  }
  if (!field.ok()) return JsonError(400, "bad_request", field.message());
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

  // Admission: refuse-fast before any expensive work.
  auto ticket = admission_->Admit(tenant.value());
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
  // nothing private and spend nothing.
  const bool is_private = config.algorithm != Algorithm::kNoiseless;
  uint64_t hold_id = 0;
  if (is_private) {
    auto reserved = budget_->Reserve(
        tenant.value(), config.privacy,
        StrFormat("train %s/%s", dataset_name.c_str(),
                  AlgorithmName(config.algorithm)));
    if (!reserved.ok()) {
      if (reserved.status().code() == StatusCode::kFailedPrecondition) {
        return BudgetRefusal(tenant.value(), budget_->Account(tenant.value()),
                             reserved.status());
      }
      if (reserved.status().code() == StatusCode::kInvalidArgument) {
        // Malformed (ε, δ) in the request, not a server fault.
        return JsonError(400, "bad_request", reserved.status().message());
      }
      return JsonError(500, "budget_unavailable", reserved.status().message());
    }
    hold_id = reserved.value();
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
  auto trained = TrainBinary(*train, config, &rng);
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
    return JsonError(500, "train_failed", trained.status().message());
  }
  if (is_private) {
    Status committed = budget_->Commit(hold_id);
    if (!committed.ok()) {
      // Unreachable by construction (the hold exists and reserve
      // guaranteed capacity); surface rather than release unaccounted.
      return JsonError(500, "budget_commit_failed", committed.message());
    }
  }

  std::string model_id;
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    model_id = StrFormat("%s-%llu", tenant.value().c_str(),
                         static_cast<unsigned long long>(next_model_seq_++));
    StoredModel stored;
    stored.tenant = tenant.value();
    stored.weights = std::move(trained).value();
    stored.algorithm = AlgorithmName(config.algorithm);
    stored.dataset = dataset_name;
    models_[model_id] = std::move(stored);
  }

  const TenantAccountView account = budget_->Account(tenant.value());
  return JsonOk(StrFormat(
      "{\"model_id\":\"%s\",\"tenant\":\"%s\",\"algorithm\":\"%s\","
      "\"dataset\":\"%s\",\"dim\":%zu,\"elapsed_ms\":%.3f,"
      "\"epsilon\":%g,\"delta\":%g,"
      "\"spent_epsilon\":%.12g,\"remaining_epsilon\":%.12g}\n",
      JsonEscape(model_id).c_str(), JsonEscape(tenant.value()).c_str(),
      AlgorithmName(config.algorithm), JsonEscape(dataset_name).c_str(),
      train->dim(), elapsed_ms, is_private ? epsilon : 0.0,
      is_private ? delta : 0.0, account.spent.epsilon,
      account.budget.epsilon - account.spent.epsilon -
          account.reserved.epsilon));
}

HttpResponse ServeDaemon::HandlePredict(const HttpRequest& request) {
  Metrics().requests->Increment();
  if (draining_.load(std::memory_order_acquire)) {
    Metrics().draining->Increment();
    return JsonError(503, "draining", "daemon is shutting down");
  }
  RequestScope scope(&inflight_mu_, &inflight_cv_, &inflight_);

  auto parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    return JsonError(400, "bad_request", parsed.status().message());
  }
  const JsonValue& body = parsed.value();
  auto tenant = body.GetString("tenant", "");
  auto model_id = body.GetString("model_id", "");
  if (!tenant.ok() || !model_id.ok()) {
    return JsonError(400, "bad_request",
                     (!tenant.ok() ? tenant.status() : model_id.status())
                         .message());
  }
  if (tenant.value().empty() || model_id.value().empty()) {
    return JsonError(400, "bad_request",
                     "missing required field: tenant and model_id");
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
    if (it == models_.end() || it->second.tenant != tenant.value()) {
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
  return JsonOk(StrFormat(
      "{\"model_id\":\"%s\",\"algorithm\":\"%s\",\"score\":%.12g,"
      "\"prediction\":%d}\n",
      JsonEscape(model_id.value()).c_str(), algorithm.c_str(), score,
      score >= 0.0 ? 1 : -1));
}

HttpResponse ServeDaemon::HandleAggregate(const HttpRequest& request) {
  Metrics().requests->Increment();
  if (draining_.load(std::memory_order_acquire)) {
    Metrics().draining->Increment();
    return JsonError(503, "draining", "daemon is shutting down");
  }
  RequestScope scope(&inflight_mu_, &inflight_cv_, &inflight_);

  auto parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    return JsonError(400, "bad_request", parsed.status().message());
  }
  const JsonValue& body = parsed.value();
  auto tenant = body.GetString("tenant", "");
  if (!tenant.ok()) return JsonError(400, "bad_request", tenant.status().message());
  if (tenant.value().empty()) {
    return JsonError(400, "bad_request", "missing required field: tenant");
  }

  std::string dataset_name, op;
  double scale = 0.0, epsilon = 0.0, delta = 0.0;
  int64_t data_seed = 0, noise_seed = 0, column = 0;
  Status field = Status::OK();
  {
    auto bind = [&field](auto result, auto* out) {
      if (field.ok()) {
        if (result.ok()) {
          *out = result.value();
        } else {
          field = result.status();
        }
      }
    };
    bind(body.GetString("dataset", "protein"), &dataset_name);
    bind(body.GetString("op", "count"), &op);
    bind(body.GetNumber("scale", 0.01), &scale);
    bind(body.GetNumber("epsilon", 0.1), &epsilon);
    bind(body.GetNumber("delta", 0.0), &delta);
    bind(body.GetInt("data_seed", 42), &data_seed);
    bind(body.GetInt("seed", 1), &noise_seed);
    bind(body.GetInt("column", 0), &column);
  }
  if (!field.ok()) return JsonError(400, "bad_request", field.message());
  if (op != "count" && op != "feature_mean") {
    return JsonError(400, "bad_request",
                     "op must be \"count\" or \"feature_mean\"");
  }

  auto ticket = admission_->Admit(tenant.value());
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
  auto table = MakeTable(data.value()->first, StorageMode::kMemory);
  if (!table.ok()) {
    return JsonError(500, "table_failed", table.status().message());
  }
  if (op == "feature_mean" &&
      (column < 0 ||
       static_cast<size_t>(column) >= table.value()->dim())) {
    return JsonError(400, "bad_request", "column out of range");
  }

  const PrivacyParams cost{epsilon, delta};
  auto reserved = budget_->Reserve(
      tenant.value(), cost,
      StrFormat("aggregate %s/%s", dataset_name.c_str(), op.c_str()));
  if (!reserved.ok()) {
    if (reserved.status().code() == StatusCode::kFailedPrecondition) {
      return BudgetRefusal(tenant.value(), budget_->Account(tenant.value()),
                           reserved.status());
    }
    if (reserved.status().code() == StatusCode::kInvalidArgument) {
      return JsonError(400, "bad_request", reserved.status().message());
    }
    return JsonError(500, "budget_unavailable", reserved.status().message());
  }
  const uint64_t hold_id = reserved.value();

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
  Status committed = budget_->Commit(hold_id);
  if (!committed.ok()) {
    return JsonError(500, "budget_commit_failed", committed.message());
  }
  const TenantAccountView account = budget_->Account(tenant.value());
  return JsonOk(StrFormat(
      "{\"op\":\"%s\",\"dataset\":\"%s\",\"value\":%.12g,"
      "\"epsilon\":%g,\"delta\":%g,\"spent_epsilon\":%.12g,"
      "\"remaining_epsilon\":%.12g}\n",
      op.c_str(), JsonEscape(dataset_name).c_str(), released.value().noisy,
      epsilon, delta, account.spent.epsilon,
      account.budget.epsilon - account.spent.epsilon -
          account.reserved.epsilon));
}

HttpResponse ServeDaemon::HandleBudget(const HttpRequest& request) {
  Metrics().requests->Increment();
  const std::string tenant = request.QueryParam("tenant").value_or("");
  if (!tenant.empty()) {
    return JsonOk(RenderAccountView(budget_->Account(tenant)) + "\n");
  }
  std::string body = "[";
  bool first = true;
  for (const TenantAccountView& view : budget_->Snapshot()) {
    if (!first) body += ",";
    first = false;
    body += RenderAccountView(view);
  }
  body += "]\n";
  return JsonOk(std::move(body));
}

}  // namespace serve
}  // namespace bolton
