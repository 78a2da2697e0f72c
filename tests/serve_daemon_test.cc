// End-to-end HTTP tests for the `boltondp serve` daemon: the library's HTTP
// client drives the /v1 JSON API against an in-process ServeDaemon and the
// responses are checked with the same JSON parser the daemon uses.
#include "serve/daemon.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/ledger.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/strings.h"

namespace bolton {
namespace serve {
namespace {

using obs::HttpReply;

/// One request; a transport failure fails the test.
HttpReply Call(int port, const std::string& method, const std::string& target,
               const std::string& body) {
  auto reply = obs::HttpCall(port, method, target, body, 30000);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply.ok() ? reply.MoveValue() : HttpReply();
}

JsonValue ParseBody(const HttpReply& response) {
  auto value = ParseJson(response.body);
  EXPECT_TRUE(value.ok()) << "unparseable body: " << response.body;
  return value.ok() ? value.MoveValue() : JsonValue();
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void StartDaemon(ServeOptions options = {}, size_t handler_threads = 2) {
    options.port = 0;
    options.handler_threads = handler_threads;
    auto daemon = ServeDaemon::Start(options);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = daemon.MoveValue();
  }

  void TearDown() override {
    FailpointRegistry::Default().Clear();
    if (daemon_) daemon_->Shutdown();
    obs::SetMetricsEnabled(false);
  }

  /// A daemon counter's value; tests that read one turn metrics on first.
  static uint64_t Count(const char* name) {
    return obs::MetricsRegistry::Default().GetCounter(name)->Value();
  }

  HttpReply Train(const std::string& json) {
    return Call(daemon_->port(), "POST", "/v1/train", json);
  }

  std::unique_ptr<ServeDaemon> daemon_;
};

TEST_F(ServeDaemonTest, TrainPredictRoundTrip) {
  StartDaemon();
  HttpReply trained = Train(
      R"({"tenant":"alice","algorithm":"bolton","epsilon":0.4,)"
      R"("delta":1e-6,"passes":1,"scale":0.02})");
  ASSERT_EQ(trained.status, 200) << trained.body;
  JsonValue result = ParseBody(trained);
  const std::string model_id = result.GetString("model_id", "").MoveValue();
  EXPECT_EQ(model_id, "alice-1");
  const int dim =
      static_cast<int>(result.GetInt("dim", 0).MoveValue());
  ASSERT_GT(dim, 0);
  EXPECT_DOUBLE_EQ(result.GetNumber("spent_epsilon", 0).MoveValue(), 0.4);
  EXPECT_DOUBLE_EQ(result.GetNumber("remaining_epsilon", 0).MoveValue(), 0.6);

  // Predict against the released model — budget-free post-processing.
  auto predict = [&](const char* value) {  // `dim` features of `value`
    std::string body = StrFormat(
        R"({"tenant":"alice","model_id":"%s","features":[%s)",
        model_id.c_str(), value);
    for (int i = 1; i < dim; ++i) body += StrFormat(",%s", value);
    return Call(daemon_->port(), "POST", "/v1/predict", body + "]}");
  };
  HttpReply predicted = predict("0.1");
  ASSERT_EQ(predicted.status, 200) << predicted.body;
  JsonValue score = ParseBody(predicted);
  const double prediction = score.GetNumber("prediction", 0.0).MoveValue();
  EXPECT_TRUE(prediction == 1.0 || prediction == -1.0);
  // Prediction spent nothing.
  EXPECT_DOUBLE_EQ(daemon_->budget().Account("alice").spent.epsilon, 0.4);

  // Finite features whose score overflows (this model's weights sum to
  // about -1.5) are refused, not scored -inf.
  EXPECT_EQ(predict("1.7e308").status, 400);

  // Wrong dimensionality is a client error, not a crash.
  HttpReply short_features = Call(
      daemon_->port(), "POST", "/v1/predict",
      StrFormat(R"({"tenant":"alice","model_id":"%s","features":[1]})",
                model_id.c_str()));
  EXPECT_EQ(short_features.status, 400);
}

TEST_F(ServeDaemonTest, MalformedRequestsGet400) {
  ServeOptions options;
  options.budget.default_budget = PrivacyParams{2.0, 1e-5};  // admits ε=1
  StartDaemon(options);
  EXPECT_EQ(Train("{not json").status, 400);
  EXPECT_EQ(Train(R"({"algorithm":"bolton"})").status, 400);  // no tenant
  EXPECT_EQ(Train(R"({"tenant":"a","algorithm":"martian"})").status, 400);
  EXPECT_EQ(Train(R"({"tenant":"a","epsilon":-2})").status, 400);
  // Tenant ids the budget file cannot store intact.
  for (const char* tenant : {"-", "a b", "a\\u0000b"}) {
    const std::string body =
        StrFormat(R"({"tenant":"%s","epsilon":0.1,"scale":0.02})", tenant);
    EXPECT_EQ(Train(body).status, 400) << tenant;
  }
  // Parameters the trainer refuses (the default ε=1 with δ>0, a batch
  // larger than the data) are client errors too, and bolt-on refunds them.
  // Parameters the solver refuses before any noise (objective perturbation
  // at the default δ=1e-6, a sharded white-box run) are refused before the
  // budget hold, so they spend nothing either.
  const double spent = daemon_->budget().Account("a").spent.epsilon;
  for (const char* body :
       {R"({"tenant":"a"})", R"({"tenant":"a","batch_size":100000})",
        R"({"tenant":"a","algorithm":"objective"})",
        R"({"tenant":"b","algorithm":"scs13","shards":4,"epsilon":0.5})"}) {
    HttpReply refused = Train(body);
    EXPECT_EQ(refused.status, 400) << body << " -> " << refused.body;
    EXPECT_EQ(ParseBody(refused).GetString("error", "").MoveValue(),
              "bad_request");
  }
  EXPECT_EQ(daemon_->budget().Account("a").spent.epsilon, spent);
  EXPECT_EQ(daemon_->budget().Account("b").spent.epsilon, 0.0);
  EXPECT_EQ(daemon_->budget().Account("b").commits, 0u);
  JsonValue error = ParseBody(Train("{not json"));
  EXPECT_EQ(error.GetString("error", "").MoveValue(), "bad_request");
}

TEST_F(ServeDaemonTest, WrongMethodGets405) {
  StartDaemon();
  EXPECT_EQ(Call(daemon_->port(), "GET", "/v1/train", "").status, 405);
  EXPECT_EQ(Call(daemon_->port(), "POST", "/v1/budget", "{}").status, 405);
}

TEST_F(ServeDaemonTest, ExhaustedTenantGets429AndLedgeredRefusal) {
  ServeOptions options;
  options.budget.default_budget = PrivacyParams{0.5, 1e-6};
  StartDaemon(options);
  ASSERT_EQ(Train(R"({"tenant":"alice","algorithm":"bolton",)"
                  R"("epsilon":0.4,"passes":1,"scale":0.02})")
                .status,
            200);
  HttpReply refused = Train(
      R"({"tenant":"alice","algorithm":"bolton","epsilon":0.4,)"
      R"("passes":1,"scale":0.02})");
  ASSERT_EQ(refused.status, 429) << refused.body;
  JsonValue body = ParseBody(refused);
  EXPECT_EQ(body.GetString("error", "").MoveValue(), "budget_exhausted");
  EXPECT_EQ(body.GetString("tenant", "").MoveValue(), "alice");
  EXPECT_DOUBLE_EQ(body.GetNumber("budget_epsilon", 0).MoveValue(), 0.5);
  EXPECT_DOUBLE_EQ(body.GetNumber("spent_epsilon", 0).MoveValue(), 0.4);
  // The refusal is on the account (and thus the ledger, tested in
  // serve_budget_test); an unaffected tenant still trains.
  EXPECT_EQ(daemon_->budget().Account("alice").refusals, 1u);
  EXPECT_EQ(Train(R"({"tenant":"bob","algorithm":"bolton","epsilon":0.4,)"
                  R"("passes":1,"scale":0.02})")
                .status,
            200);
}

TEST_F(ServeDaemonTest, NoiselessTrainingSpendsNothing) {
  StartDaemon();
  ASSERT_EQ(Train(R"({"tenant":"alice","algorithm":"noiseless",)"
                  R"("passes":1,"scale":0.02})")
                .status,
            200);
  EXPECT_DOUBLE_EQ(daemon_->budget().Account("alice").spent.epsilon, 0.0);
}

TEST_F(ServeDaemonTest, ForeignModelLooksMissing) {
  StartDaemon();
  HttpReply trained = Train(
      R"({"tenant":"alice","algorithm":"noiseless","passes":1,"scale":0.02})");
  ASSERT_EQ(trained.status, 200);
  const std::string model_id =
      ParseBody(trained).GetString("model_id", "").MoveValue();
  // Bob probing Alice's model id gets the same 404 as a nonexistent id —
  // the API does not disclose other tenants' model namespace.
  HttpReply foreign = Call(
      daemon_->port(), "POST", "/v1/predict",
      StrFormat(R"({"tenant":"bob","model_id":"%s","features":[1]})",
                model_id.c_str()));
  HttpReply missing = Call(
      daemon_->port(), "POST", "/v1/predict",
      R"({"tenant":"bob","model_id":"no-such","features":[1]})");
  EXPECT_EQ(foreign.status, 404);
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(foreign.body, missing.body);
}

TEST_F(ServeDaemonTest, AggregateSpendsUnderTheSameBudget) {
  StartDaemon();
  HttpReply counted = Call(
      daemon_->port(), "POST", "/v1/aggregate",
      R"({"tenant":"alice","op":"count","epsilon":0.2,"scale":0.02})");
  ASSERT_EQ(counted.status, 200) << counted.body;
  JsonValue body = ParseBody(counted);
  EXPECT_GT(body.GetNumber("value", 0.0).MoveValue(), 0.0);
  EXPECT_DOUBLE_EQ(daemon_->budget().Account("alice").spent.epsilon, 0.2);
}

TEST_F(ServeDaemonTest, AggregateAnswersAreByteIdenticalToTheirGoldens) {
  // Bodies answered when each aggregate copied the cached rows into a table
  // of its own; reading them in place must not change a byte.
  ServeOptions options;
  options.budget.default_budget = PrivacyParams{2.0, 1e-5};
  StartDaemon(options);
  const std::pair<const char*, const char*> cases[] = {
      {R"({"tenant":"alice","op":"count","epsilon":0.2,"scale":0.02,)"
       R"("seed":3})",
       R"({"op":"count","dataset":"protein","value":727.6237967609284,)"
       R"("epsilon":0.2,"delta":0,"spent_epsilon":0.2,)"
       R"("remaining_epsilon":1.8})"},
      {R"({"tenant":"alice","op":"feature_mean","column":5,"epsilon":0.5,)"
       R"("scale":0.02,"seed":4})",
       R"({"op":"feature_mean","dataset":"protein",)"
       R"("value":0.0020493345791463315,"epsilon":0.5,"delta":0,)"
       R"("spent_epsilon":0.7,"remaining_epsilon":1.3})"},
      {R"({"tenant":"bob","op":"feature_mean","column":0,"epsilon":0.3,)"
       R"("delta":1e-6,"scale":0.03,"data_seed":7,"seed":9})",
       R"({"op":"feature_mean","dataset":"protein",)"
       R"("value":-0.00037101991269229695,"epsilon":0.3,"delta":1e-06,)"
       R"("spent_epsilon":0.3,"remaining_epsilon":1.7})"},
      {R"({"tenant":"bob","dataset":"covertype","op":"count",)"
       R"("epsilon":0.25,"scale":0.001,"seed":11})",
       R"({"op":"count","dataset":"covertype","value":494.2407922492169,)"
       R"("epsilon":0.25,"delta":0,"spent_epsilon":0.55,)"
       R"("remaining_epsilon":1.45})"},
  };
  for (const auto& [request, golden] : cases) {
    HttpReply reply = Call(daemon_->port(), "POST", "/v1/aggregate", request);
    EXPECT_EQ(reply.status, 200) << request;
    EXPECT_EQ(reply.body, std::string(golden) + "\n") << request;
  }
}

TEST_F(ServeDaemonTest, DatasetCacheStaysWithinItsByteBudget) {
  ServeOptions options;
  options.budget.default_budget = PrivacyParams{100.0, 1e-5};
  StartDaemon(options);
  auto mean = [&](int data_seed, const char* scale) {
    HttpReply reply = Call(
        daemon_->port(), "POST", "/v1/aggregate",
        StrFormat(R"({"tenant":"alice","op":"feature_mean","epsilon":0.01,)"
                  R"("scale":%s,"data_seed":%d})",
                  scale, data_seed));
    EXPECT_EQ(reply.status, 200) << reply.body;
    return ParseBody(reply).GetNumber("value", 0.0).MoveValue();
  };
  // Scales that print alike to six digits are still different datasets.
  mean(1, "0.02");
  const size_t small = daemon_->cached_dataset_bytes();
  ASSERT_GT(small, 0u);
  mean(1, "0.0200000001");
  EXPECT_EQ(daemon_->cached_dataset_bytes(), 2 * small);

  // protein@0.5 with one data_seed after another, past what the budget
  // holds: the cache keeps the newest that fit and never holds more.
  const double first = mean(1, "0.5");
  const size_t per_seed = daemon_->cached_dataset_bytes() - 2 * small;
  ASSERT_GT(per_seed, 0u);
  const size_t fits = ServeDaemon::kDatasetCacheBytes / per_seed;
  ASSERT_GE(fits, 2u);
  for (int seed = 2; seed <= static_cast<int>(fits) + 3; ++seed) {
    mean(seed, "0.5");
    EXPECT_LE(daemon_->cached_dataset_bytes(), ServeDaemon::kDatasetCacheBytes)
        << "after data_seed " << seed;
  }
  EXPECT_EQ(daemon_->cached_dataset_bytes(), fits * per_seed);
  // An evicted dataset is generated again, row for row.
  EXPECT_EQ(mean(1, "0.5"), first);
  EXPECT_LE(daemon_->cached_dataset_bytes(), ServeDaemon::kDatasetCacheBytes);
}

TEST_F(ServeDaemonTest, ConcurrentFirstRequestsGenerateTheirDatasetOnce) {
  ServeOptions options;
  options.budget.default_budget = PrivacyParams{100.0, 1e-5};
  constexpr int kCallers = 4;
  StartDaemon(options, kCallers);
  // Every caller misses on the same cold key at once; protein@0.3 takes
  // tens of milliseconds to generate, so the misses overlap.
  auto count_from_callers = [&](const char* dataset) {
    std::vector<HttpReply> replies(kCallers);
    std::vector<std::thread> callers;
    std::latch start(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        start.arrive_and_wait();
        replies[c] = Call(
            daemon_->port(), "POST", "/v1/aggregate",
            StrFormat(R"({"tenant":"t%d","dataset":"%s","op":"count",)"
                      R"("epsilon":0.01,"scale":0.3,"data_seed":9})",
                      c, dataset));
      });
    }
    for (std::thread& caller : callers) caller.join();
    return replies;
  };
  for (const HttpReply& reply : count_from_callers("protein")) {
    EXPECT_EQ(reply.status, 200) << reply.body;
  }
  EXPECT_EQ(daemon_->datasets_generated(), 1u);
  const size_t cached = daemon_->cached_dataset_bytes();
  EXPECT_GT(cached, 0u);

  // A failed generation reaches every caller and is not cached: the next
  // request for the key tries again.
  for (const HttpReply& reply : count_from_callers("nope")) {
    EXPECT_EQ(reply.status, 404) << reply.body;
    EXPECT_EQ(ParseBody(reply).GetString("error", "").MoveValue(),
              "bad_dataset");
  }
  EXPECT_EQ(daemon_->cached_dataset_bytes(), cached);
  const size_t generated = daemon_->datasets_generated();
  EXPECT_EQ(Call(daemon_->port(), "POST", "/v1/aggregate",
                 R"({"tenant":"t0","dataset":"nope","op":"count",)"
                 R"("epsilon":0.01,"scale":0.3,"data_seed":9})")
                .status,
            404);
  EXPECT_EQ(daemon_->datasets_generated(), generated + 1);
}

TEST_F(ServeDaemonTest, BudgetEndpointReportsAccounts) {
  StartDaemon();
  ASSERT_EQ(Train(R"({"tenant":"alice","algorithm":"bolton","epsilon":0.3,)"
                  R"("passes":1,"scale":0.02})")
                .status,
            200);
  HttpReply single =
      Call(daemon_->port(), "GET", "/v1/budget?tenant=alice", "");
  ASSERT_EQ(single.status, 200);
  JsonValue view = ParseBody(single);
  EXPECT_EQ(view.GetString("tenant", "").MoveValue(), "alice");
  EXPECT_DOUBLE_EQ(view.GetNumber("spent_epsilon", 0).MoveValue(), 0.3);
  EXPECT_EQ(view.GetInt("commits", 0).MoveValue(), 1);

  HttpReply all = Call(daemon_->port(), "GET", "/v1/budget", "");
  ASSERT_EQ(all.status, 200);
  auto list = ParseJson(all.body);
  ASSERT_TRUE(list.ok()) << all.body;
  ASSERT_TRUE(list.value().is_array());
  EXPECT_EQ(list.value().array_items().size(), 1u);
}

TEST_F(ServeDaemonTest, SaturatedTenantGets429OthersProceed) {
  ServeOptions options;
  options.admission.max_inflight = 4;
  options.admission.max_inflight_per_tenant = 1;
  StartDaemon(options);
  obs::SetMetricsEnabled(true);
  const uint64_t requests = Count("serve.requests_total");
  const uint64_t admitted = Count("serve.admitted_total");
  const uint64_t busy_before = Count("serve.tenant_busy_total");
  const obs::Histogram* latency = obs::MetricsRegistry::Default().GetHistogram(
      "serve.request_seconds", obs::LatencySecondsBuckets());
  const uint64_t timed = latency->TotalCount();
  // Occupy alice's one slot out-of-band: her next request must bounce with
  // tenant_busy while bob is unaffected. Deterministic — no racing threads.
  auto ticket = daemon_->admission().Admit("alice");
  ASSERT_TRUE(ticket.ok());
  HttpReply busy = Train(
      R"({"tenant":"alice","algorithm":"noiseless","passes":1,"scale":0.02})");
  EXPECT_EQ(busy.status, 429);
  EXPECT_EQ(ParseBody(busy).GetString("error", "").MoveValue(),
            "tenant_busy");
  EXPECT_EQ(Train(R"({"tenant":"bob","algorithm":"noiseless",)"
                  R"("passes":1,"scale":0.02})")
                .status,
            200);
  // Both trains were requests, and both were timed; alice's out-of-band
  // ticket and bob's train were admitted.
  EXPECT_EQ(Count("serve.requests_total") - requests, 2u);
  EXPECT_EQ(latency->TotalCount() - timed, 2u);
  EXPECT_EQ(Count("serve.admitted_total") - admitted, 2u);
  EXPECT_EQ(Count("serve.tenant_busy_total") - busy_before, 1u);
}

TEST_F(ServeDaemonTest, OverloadedDaemonShedsWithRetryAfter) {
  ServeOptions options;
  options.admission.max_inflight = 2;
  options.admission.max_inflight_per_tenant = 2;
  StartDaemon(options);
  obs::SetMetricsEnabled(true);
  const uint64_t overloaded = Count("serve.overloaded_total");
  auto slot1 = daemon_->admission().Admit("x");
  auto slot2 = daemon_->admission().Admit("y");
  ASSERT_TRUE(slot1.ok());
  ASSERT_TRUE(slot2.ok());
  HttpReply shed = Train(
      R"({"tenant":"alice","algorithm":"noiseless","passes":1,"scale":0.02})");
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(ParseBody(shed).GetString("error", "").MoveValue(), "overloaded");
  EXPECT_NE(shed.head.find("Retry-After:"), std::string::npos) << shed.head;
  EXPECT_EQ(Count("serve.overloaded_total") - overloaded, 1u);
}

TEST_F(ServeDaemonTest, DeadlineCancelsTrainingAndRefunds) {
  StartDaemon();
  // Stall every PSGD pass 300 ms; the request allows 50 ms. The solver must
  // notice the deadline at a batch boundary, the daemon must answer 408,
  // and — bolton draws noise only at release — the hold must be refunded.
  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("psgd.pass:delay@300").ok());
  obs::SetMetricsEnabled(true);
  const uint64_t cancelled = Count("serve.cancelled_total");
  HttpReply timed_out = Train(
      R"({"tenant":"alice","algorithm":"bolton","epsilon":0.4,)"
      R"("passes":3,"scale":0.02,"timeout_ms":50})");
  FailpointRegistry::Default().Clear();
  ASSERT_EQ(timed_out.status, 408) << timed_out.body;
  EXPECT_EQ(ParseBody(timed_out).GetString("error", "").MoveValue(),
            "timeout");
  EXPECT_EQ(Count("serve.cancelled_total") - cancelled, 1u);
  TenantAccountView view = daemon_->budget().Account("alice");
  EXPECT_DOUBLE_EQ(view.spent.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
  EXPECT_EQ(view.refunds, 1u);
  // Capacity intact: the same request without the stall succeeds.
  EXPECT_EQ(Train(R"({"tenant":"alice","algorithm":"bolton","epsilon":0.4,)"
                  R"("passes":1,"scale":0.02})")
                .status,
            200);
  // A deadline past the end of the clock must not wrap into the past.
  EXPECT_EQ(Train(R"({"tenant":"bob","epsilon":0.4,"passes":1,"scale":0.02,)"
                  R"("timeout_ms":18446744073709})").status,
            200);
}

TEST_F(ServeDaemonTest, WhiteBoxRefusedUpFrontIsFreeAndAFailedRunIsCharged) {
  StartDaemon();  // default budget: ε = 1, δ = 1e-6
  // Within one part in 10⁹ of the budget, so Reserve would admit it; but
  // objective perturbation refuses huber_svm from its parameters alone,
  // before the hold, so nothing is charged.
  HttpReply refused = Train(
      R"({"tenant":"e","algorithm":"objective","model":"huber_svm",)"
      R"("epsilon":1.0000000005,"delta":0,"scale":0.02})");
  EXPECT_EQ(refused.status, 400) << refused.body;
  EXPECT_EQ(ParseBody(refused).GetString("error", "").MoveValue(),
            "bad_request");
  TenantAccountView view = daemon_->budget().Account("e");
  EXPECT_EQ(view.spent.epsilon, 0.0);
  EXPECT_EQ(view.commits, 0u);

  // A white-box run that fails after it started may have drawn noise: it
  // commits, answers its error, and the daemon keeps serving.
  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("psgd.pass:error@2").ok());
  HttpReply failed = Train(
      R"({"tenant":"e","algorithm":"scs13","epsilon":1.0000000005,)"
      R"("delta":0,"passes":2,"scale":0.02})");
  FailpointRegistry::Default().Clear();
  EXPECT_EQ(failed.status, 500) << failed.body;
  EXPECT_EQ(ParseBody(failed).GetString("error", "").MoveValue(),
            "train_failed");
  view = daemon_->budget().Account("e");
  EXPECT_EQ(view.spent.epsilon, 1.0000000005);
  EXPECT_EQ(view.reserved.epsilon, 0.0);
  EXPECT_EQ(view.commits, 1u);
  // The spent tenant is refused at Reserve.
  EXPECT_EQ(Call(daemon_->port(), "GET", "/v1/budget?tenant=e", "").status,
            200);
  HttpReply exhausted = Call(daemon_->port(), "POST", "/v1/aggregate",
                             R"({"tenant":"e","epsilon":1e-9,"scale":0.02})");
  EXPECT_EQ(exhausted.status, 429) << exhausted.body;
}

TEST_F(ServeDaemonTest, RecoveredHoldKeepsTheLabelReserveWasGiven) {
  obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
  ledger.Clear();
  ledger.SetEnabled(true);
  ServeOptions options;
  options.budget.state_dir = ::testing::TempDir() + "serve_recover_label";
  ::mkdir(options.budget.state_dir.c_str(), 0700);
  std::remove((options.budget.state_dir + "/bolton.budget").c_str());
  std::remove((options.budget.state_dir + "/bolton.journal").c_str());
  StartDaemon(options);
  // The commit record is queued but never written, as in a crash between
  // the spend and its persist: the restart finds the hold pending.
  ASSERT_TRUE(FailpointRegistry::Default()
                  .Configure("serve.budget_commit:error@1")
                  .ok());
  ASSERT_EQ(Train(R"({"tenant":"alice","algorithm":"bolton","epsilon":0.4,)"
                  R"("passes":1,"scale":0.02})")
                .status,
            200);
  FailpointRegistry::Default().Clear();
  daemon_->Shutdown();
  daemon_.reset();
  StartDaemon(options);
  std::vector<obs::LedgerEvent> events = ledger.Snapshot();
  ledger.SetEnabled(false);
  ledger.Clear();

  std::string reserved, recovered;
  for (const obs::LedgerEvent& event : events) {
    if (event.kind == "budget_reserve") reserved = event.label;
    if (event.kind == "budget_recover") recovered = event.label;
  }
  EXPECT_FALSE(reserved.empty());
  EXPECT_EQ(recovered, reserved);
  EXPECT_EQ(daemon_->budget().Account("alice").recovered, 1u);
}

TEST_F(ServeDaemonTest, ShutdownIsIdempotentAndStopsServing) {
  StartDaemon();
  const int port = daemon_->port();
  ASSERT_EQ(Train(R"({"tenant":"a","algorithm":"noiseless","passes":1,)"
                  R"("scale":0.02})")
                .status,
            200);
  daemon_->Shutdown();
  daemon_->Shutdown();  // second call is a no-op
  EXPECT_FALSE(obs::HttpCall(port, "GET", "/v1/budget").ok());
}

TEST_F(ServeDaemonTest, RefusedBudgetStateFailsStartWithItsReason) {
  // Start() fails before the HTTP server exists: tearing down the partly
  // built daemon must hand back the budget store's error, not crash.
  ServeOptions options;
  options.budget.state_dir = ::testing::TempDir() + "serve_refused_state";
  ::mkdir(options.budget.state_dir.c_str(), 0700);
  {
    std::ofstream out(options.budget.state_dir + "/bolton.budget");
    out << "bolton-budget v1\nholds 0\n";
  }
  auto daemon = ServeDaemon::Start(options);
  ASSERT_FALSE(daemon.ok());
  EXPECT_NE(daemon.status().message().find("bolton-budget v1"),
            std::string::npos)
      << daemon.status().ToString();
  std::remove((options.budget.state_dir + "/bolton.budget").c_str());
}

}  // namespace
}  // namespace serve
}  // namespace bolton
