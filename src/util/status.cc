#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace bolton {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kOutOfRange:
      return "out-of-range";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kIOError:
      return "io-error";
    case StatusCode::kFailedPrecondition:
      return "failed-precondition";
    case StatusCode::kNotImplemented:
      return "not-implemented";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out = StatusCodeToString(code());
  out += ": ";
  out += message();
  return out;
}

Status Status::WithContext(const std::string& context) const {
  if (ok()) return *this;
  return Status(code(), context + ": " + message());
}

void Status::CheckOK() const {
  if (ok()) return;
  std::fprintf(stderr, "fatal status: %s\n", ToString().c_str());
  std::abort();
}

int ExitStatus(const char* program, const Status& status) {
  if (status.ok()) return 0;
  std::fprintf(stderr, "%s: %s\n", program, status.ToString().c_str());
  return 1;
}

}  // namespace bolton
