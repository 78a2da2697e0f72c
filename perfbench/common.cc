#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/net.h"
#include "util/strings.h"

namespace bolton {
namespace perfbench {

ServeShape ServeShapeFor(const std::string& workload, bool smoke) {
  ServeShape shape;
  shape.name = workload;
  if (workload == "serve_train") {
    shape.tenants = 16;
  } else {
    // serve_mix: reads beside writes over a large budget state.
    shape.tenants = smoke ? 16 : 256;
    shape.train_scale = 0.2;
    shape.predict_share = 0.50;
    shape.budget_share = 0.10;
    shape.aggregate_share = 0.25;
  }
  return shape;
}

std::string TenantName(size_t tenant) { return StrFormat("t%03zu", tenant); }

std::string TrainBody(size_t tenant, double scale, uint64_t seed) {
  return StrFormat(
      "{\"tenant\":\"%s\",\"dataset\":\"protein\",\"scale\":%g,"
      "\"algorithm\":\"bolton\",\"epsilon\":%g,\"delta\":%g,\"passes\":3,"
      "\"batch_size\":50,\"seed\":%llu}",
      TenantName(tenant).c_str(), scale, kTrainEpsilon, kTrainDelta,
      static_cast<unsigned long long>(seed));
}

std::string AggregateBody(size_t tenant, size_t column, uint64_t seed) {
  return StrFormat(
      "{\"tenant\":\"%s\",\"dataset\":\"protein\",\"scale\":%g,"
      "\"op\":\"feature_mean\",\"column\":%zu,\"epsilon\":%g,\"delta\":0,"
      "\"seed\":%llu}",
      TenantName(tenant).c_str(), kAggregateScale, column, kAggregateEpsilon,
      static_cast<unsigned long long>(seed));
}

std::string PredictBody(size_t tenant, const std::string& model_id,
                        size_t dim, Rng* rng) {
  std::string body = StrFormat("{\"tenant\":\"%s\",\"model_id\":\"%s\","
                               "\"features\":[",
                               TenantName(tenant).c_str(), model_id.c_str());
  for (size_t j = 0; j < dim; ++j) {
    body += StrFormat(j == 0 ? "%.6f" : ",%.6f",
                      rng->UniformDouble(-1.0, 1.0) / std::sqrt(dim));
  }
  body += "]}";
  return body;
}

RequestStream::RequestStream(const ServeShape& shape, uint64_t seed,
                             size_t caller, size_t callers)
    : shape_(shape), rng_(seed * 1000003ull + caller) {
  for (size_t t = caller; t < shape.tenants; t += callers) {
    tenants_.push_back(t);
  }
}

Request RequestStream::Next(const std::vector<std::string>& model_ids) {
  Request request;
  request.tenant = tenants_[rng_.UniformInt(tenants_.size())];
  const double u = rng_.UniformDouble();
  const uint64_t seed = rng_.Next() >> 16;
  request.method = "POST";
  if (u < shape_.predict_share) {
    request.kind = Kind::kPredict;
    request.path = "/v1/predict";
    request.body = PredictBody(request.tenant, model_ids[request.tenant],
                               kProteinDim, &rng_);
  } else if (u < shape_.predict_share + shape_.budget_share) {
    request.kind = Kind::kBudget;
    request.method = "GET";
    request.path = "/v1/budget?tenant=" + TenantName(request.tenant);
  } else if (u < shape_.predict_share + shape_.budget_share +
                     shape_.aggregate_share) {
    request.kind = Kind::kAggregate;
    request.path = "/v1/aggregate";
    request.body = AggregateBody(request.tenant,
                                 rng_.UniformInt(kProteinDim), seed);
    request.epsilon = kAggregateEpsilon;
  } else {
    request.kind = Kind::kTrain;
    request.path = "/v1/train";
    request.body = TrainBody(request.tenant, shape_.train_scale, seed);
    request.epsilon = kTrainEpsilon;
    request.delta = kTrainDelta;
  }
  return request;
}

Reply Exchange(int port, const std::string& method, const std::string& path,
               const std::string& body) {
  Reply reply;
  const std::string request =
      body.empty() && method == "GET"
          ? StrFormat("GET %s HTTP/1.0\r\nHost: 127.0.0.1\r\n"
                      "Connection: close\r\n\r\n",
                      path.c_str())
          : StrFormat("%s %s HTTP/1.0\r\nHost: 127.0.0.1\r\n"
                      "Content-Type: application/json\r\n"
                      "Content-Length: %zu\r\nConnection: close\r\n\r\n%s",
                      method.c_str(), path.c_str(), body.size(),
                      body.c_str());
  const uint64_t start = NowNanos();
  auto fd = net::ConnectTcp(static_cast<uint16_t>(port));
  if (!fd.ok()) return reply;
  Result<std::string> response = Status::IOError("send failed");
  if (net::SendAll(fd.value(), request.data(), request.size(), 30000).ok()) {
    response = net::RecvAll(fd.value(), 64 << 20, 60000);
  }
  net::CloseFd(fd.value());
  reply.seconds = (NowNanos() - start) * 1e-9;
  if (!response.ok()) return reply;
  const std::string& text = response.value();
  const size_t head_end = text.find("\r\n\r\n");
  const std::vector<std::string> parts = StrSplit(text.substr(0, 16), ' ');
  if (head_end == std::string::npos || parts.size() < 2) return reply;
  auto code = ParseInt(parts[1]);
  reply.status = code.ok() ? static_cast<int>(code.value()) : 0;
  reply.body = text.substr(head_end + 4);
  return reply;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

std::string ProcPath(pid_t pid, const char* leaf) {
  return pid == 0 ? StrFormat("/proc/self/%s", leaf)
                  : StrFormat("/proc/%d/%s", static_cast<int>(pid), leaf);
}

}  // namespace

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in(ProcPath(pid, "stat"));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcessStatusKb(pid_t pid, const char* field) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::atof(line.c_str() + len);
    }
  }
  return 0.0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes times;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8; ++i) {
    double value = 0.0;
    if (!(in >> value)) break;
    times.total += value;
    if (i == 7) times.steal = value;
  }
  return times;
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowSeconds() { return NowNanos() * 1e-9; }

void SpanLog::Add(uint64_t id, const char* name, uint64_t parent, uint64_t op,
                  uint64_t start_ns, uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, op, start_ns, end_ns});
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, uint64_t> parent_of;
  for (const Span& span : spans_) parent_of[span.id] = span.parent;
  std::ofstream out(path);
  for (const Span& span : spans_) {
    obs::SpanRecord record;
    record.name = span.name;
    record.id = span.id;
    record.parent_id = span.parent;
    for (uint64_t p = span.parent; p != 0; p = parent_of[p]) ++record.depth;
    record.start_ns = span.start_ns;
    record.duration_ns = span.end_ns - span.start_ns;
    record.thread_name = "perfbench";
    const std::string json = obs::RenderSpanJson(record);
    out << "{\"op\":" << span.op << "," << json.substr(1) << "\n";
  }
  return static_cast<bool>(out);
}

void JsonLine::Num(const std::string& key, double value) {
  fields_.emplace_back(key, std::isfinite(value) ? StrFormat("%.17g", value)
                                                 : std::string("null"));
}

void JsonLine::Print() const {
  std::string line = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) line += ",";
    line += "\"" + fields_[i].first + "\":" + fields_[i].second;
  }
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
}  // namespace bolton
