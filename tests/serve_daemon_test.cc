// End-to-end HTTP tests for the `boltondp serve` daemon: a raw-socket
// client drives the /v1 JSON API against an in-process ServeDaemon and the
// responses are checked with the same JSON parser the daemon uses.
#include "serve/daemon.h"

#include <sys/stat.h>

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.h"
#include "util/json.h"
#include "util/net.h"
#include "util/strings.h"

namespace bolton {
namespace serve {
namespace {

struct HttpResponse {
  int status = 0;
  std::string head;
  std::string body;
};

/// One HTTP/1.0 exchange: send, read to EOF, split head from body.
HttpResponse Call(int port, const std::string& method,
                  const std::string& target, const std::string& body) {
  HttpResponse out;
  auto fd = net::ConnectTcp(static_cast<uint16_t>(port));
  if (!fd.ok()) {
    ADD_FAILURE() << "connect: " << fd.status().ToString();
    return out;
  }
  std::string request = StrFormat("%s %s HTTP/1.0\r\nHost: 127.0.0.1\r\n",
                                  method.c_str(), target.c_str());
  if (!body.empty() || method == "POST") {
    request += StrFormat("Content-Type: application/json\r\n"
                         "Content-Length: %zu\r\n",
                         body.size());
  }
  request += "Connection: close\r\n\r\n";
  request += body;
  if (!net::SendAll(fd.value(), request.data(), request.size(), 5000).ok()) {
    ADD_FAILURE() << "send failed";
    net::CloseFd(fd.value());
    return out;
  }
  auto response = net::RecvAll(fd.value(), 16 * 1024 * 1024, 30000);
  net::CloseFd(fd.value());
  if (!response.ok()) {
    ADD_FAILURE() << "recv: " << response.status().ToString();
    return out;
  }
  const std::string& text = response.value();
  const size_t split = text.find("\r\n\r\n");
  out.head = split == std::string::npos ? text : text.substr(0, split);
  out.body = split == std::string::npos ? "" : text.substr(split + 4);
  std::vector<std::string> parts = StrSplit(out.head, ' ');
  if (parts.size() >= 2) {
    auto code = ParseInt(parts[1]);
    if (code.ok()) out.status = static_cast<int>(code.value());
  }
  return out;
}

JsonValue ParseBody(const HttpResponse& response) {
  auto value = ParseJson(response.body);
  EXPECT_TRUE(value.ok()) << "unparseable body: " << response.body;
  return value.ok() ? value.MoveValue() : JsonValue();
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void StartDaemon(ServeOptions options = {}) {
    options.port = 0;
    options.handler_threads = 2;
    auto daemon = ServeDaemon::Start(options);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = daemon.MoveValue();
  }

  void TearDown() override {
    FailpointRegistry::Default().Clear();
    if (daemon_) daemon_->Shutdown();
  }

  HttpResponse Train(const std::string& json) {
    return Call(daemon_->port(), "POST", "/v1/train", json);
  }

  std::unique_ptr<ServeDaemon> daemon_;
};

TEST_F(ServeDaemonTest, TrainPredictRoundTrip) {
  StartDaemon();
  HttpResponse trained = Train(
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
  std::string features = "[";
  for (int i = 0; i < dim; ++i) features += (i ? ",0.1" : "0.1");
  features += "]";
  HttpResponse predicted = Call(
      daemon_->port(), "POST", "/v1/predict",
      StrFormat(R"({"tenant":"alice","model_id":"%s","features":%s})",
                model_id.c_str(), features.c_str()));
  ASSERT_EQ(predicted.status, 200) << predicted.body;
  JsonValue score = ParseBody(predicted);
  const double prediction = score.GetNumber("prediction", 0.0).MoveValue();
  EXPECT_TRUE(prediction == 1.0 || prediction == -1.0);
  // Prediction spent nothing.
  EXPECT_DOUBLE_EQ(daemon_->budget().Account("alice").spent.epsilon, 0.4);

  // Wrong dimensionality is a client error, not a crash.
  HttpResponse short_features = Call(
      daemon_->port(), "POST", "/v1/predict",
      StrFormat(R"({"tenant":"alice","model_id":"%s","features":[1]})",
                model_id.c_str()));
  EXPECT_EQ(short_features.status, 400);
}

TEST_F(ServeDaemonTest, MalformedRequestsGet400) {
  StartDaemon();
  EXPECT_EQ(Train("{not json").status, 400);
  EXPECT_EQ(Train(R"({"algorithm":"bolton"})").status, 400);  // no tenant
  EXPECT_EQ(Train(R"({"tenant":"a","algorithm":"martian"})").status, 400);
  EXPECT_EQ(Train(R"({"tenant":"a","epsilon":-2})").status, 400);
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
  HttpResponse refused = Train(
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
  HttpResponse trained = Train(
      R"({"tenant":"alice","algorithm":"noiseless","passes":1,"scale":0.02})");
  ASSERT_EQ(trained.status, 200);
  const std::string model_id =
      ParseBody(trained).GetString("model_id", "").MoveValue();
  // Bob probing Alice's model id gets the same 404 as a nonexistent id —
  // the API does not disclose other tenants' model namespace.
  HttpResponse foreign = Call(
      daemon_->port(), "POST", "/v1/predict",
      StrFormat(R"({"tenant":"bob","model_id":"%s","features":[1]})",
                model_id.c_str()));
  HttpResponse missing = Call(
      daemon_->port(), "POST", "/v1/predict",
      R"({"tenant":"bob","model_id":"no-such","features":[1]})");
  EXPECT_EQ(foreign.status, 404);
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(foreign.body, missing.body);
}

TEST_F(ServeDaemonTest, AggregateSpendsUnderTheSameBudget) {
  StartDaemon();
  HttpResponse counted = Call(
      daemon_->port(), "POST", "/v1/aggregate",
      R"({"tenant":"alice","op":"count","epsilon":0.2,"scale":0.02})");
  ASSERT_EQ(counted.status, 200) << counted.body;
  JsonValue body = ParseBody(counted);
  EXPECT_GT(body.GetNumber("value", 0.0).MoveValue(), 0.0);
  EXPECT_DOUBLE_EQ(daemon_->budget().Account("alice").spent.epsilon, 0.2);
}

TEST_F(ServeDaemonTest, BudgetEndpointReportsAccounts) {
  StartDaemon();
  ASSERT_EQ(Train(R"({"tenant":"alice","algorithm":"bolton","epsilon":0.3,)"
                  R"("passes":1,"scale":0.02})")
                .status,
            200);
  HttpResponse single =
      Call(daemon_->port(), "GET", "/v1/budget?tenant=alice", "");
  ASSERT_EQ(single.status, 200);
  JsonValue view = ParseBody(single);
  EXPECT_EQ(view.GetString("tenant", "").MoveValue(), "alice");
  EXPECT_DOUBLE_EQ(view.GetNumber("spent_epsilon", 0).MoveValue(), 0.3);
  EXPECT_EQ(view.GetInt("commits", 0).MoveValue(), 1);

  HttpResponse all = Call(daemon_->port(), "GET", "/v1/budget", "");
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
  // Occupy alice's one slot out-of-band: her next request must bounce with
  // tenant_busy while bob is unaffected. Deterministic — no racing threads.
  auto ticket = daemon_->admission().Admit("alice");
  ASSERT_TRUE(ticket.ok());
  HttpResponse busy = Train(
      R"({"tenant":"alice","algorithm":"noiseless","passes":1,"scale":0.02})");
  EXPECT_EQ(busy.status, 429);
  EXPECT_EQ(ParseBody(busy).GetString("error", "").MoveValue(),
            "tenant_busy");
  EXPECT_EQ(Train(R"({"tenant":"bob","algorithm":"noiseless",)"
                  R"("passes":1,"scale":0.02})")
                .status,
            200);
}

TEST_F(ServeDaemonTest, OverloadedDaemonShedsWithRetryAfter) {
  ServeOptions options;
  options.admission.max_inflight = 2;
  options.admission.max_inflight_per_tenant = 2;
  StartDaemon(options);
  auto slot1 = daemon_->admission().Admit("x");
  auto slot2 = daemon_->admission().Admit("y");
  ASSERT_TRUE(slot1.ok());
  ASSERT_TRUE(slot2.ok());
  HttpResponse shed = Train(
      R"({"tenant":"alice","algorithm":"noiseless","passes":1,"scale":0.02})");
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(ParseBody(shed).GetString("error", "").MoveValue(), "overloaded");
  EXPECT_NE(shed.head.find("Retry-After:"), std::string::npos) << shed.head;
}

TEST_F(ServeDaemonTest, DeadlineCancelsTrainingAndRefunds) {
  StartDaemon();
  // Stall every PSGD pass 300 ms; the request allows 50 ms. The solver must
  // notice the deadline at a batch boundary, the daemon must answer 408,
  // and — bolton draws noise only at release — the hold must be refunded.
  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("psgd.pass:delay@300").ok());
  HttpResponse timed_out = Train(
      R"({"tenant":"alice","algorithm":"bolton","epsilon":0.4,)"
      R"("passes":3,"scale":0.02,"timeout_ms":50})");
  FailpointRegistry::Default().Clear();
  ASSERT_EQ(timed_out.status, 408) << timed_out.body;
  EXPECT_EQ(ParseBody(timed_out).GetString("error", "").MoveValue(),
            "timeout");
  TenantAccountView view = daemon_->budget().Account("alice");
  EXPECT_DOUBLE_EQ(view.spent.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
  EXPECT_EQ(view.refunds, 1u);
  // Capacity intact: the same request without the stall succeeds.
  EXPECT_EQ(Train(R"({"tenant":"alice","algorithm":"bolton","epsilon":0.4,)"
                  R"("passes":1,"scale":0.02})")
                .status,
            200);
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
  EXPECT_FALSE(net::ConnectTcp(static_cast<uint16_t>(port)).ok());
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
