#ifndef BOLTON_UTIL_STATUS_H_
#define BOLTON_UTIL_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace bolton {

/// Machine-readable category for a `Status`.
///
/// The set mirrors the categories used by mature database codebases
/// (Arrow, RocksDB): a small stable enum that callers can switch on, with a
/// free-form human-readable message carried alongside.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kIOError = 4,
  kFailedPrecondition = 5,
  kNotImplemented = 6,
  kInternal = 7,
  /// The operation was abandoned before completion — the caller's deadline
  /// passed or it asked for cancellation. Distinct from kIOError/kInternal:
  /// nothing went wrong with the work itself, the caller stopped wanting it.
  kCancelled = 8,
};

/// Returns the canonical lower-case name of a status code ("ok",
/// "invalid-argument", ...). Never returns nullptr.
const char* StatusCodeToString(StatusCode code);

/// Outcome of a fallible operation.
///
/// Library code in this project never throws; every operation that can fail
/// returns a `Status` (or a `Result<T>`, see result.h). The OK status is
/// represented without allocation, so passing success around is free.
///
/// Typical use:
///
///     Status DoWork() {
///       if (bad) return Status::InvalidArgument("epsilon must be > 0");
///       return Status::OK();
///     }
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(const Status& other) { CopyFrom(other); }
  Status& operator=(const Status& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Named constructors, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  /// True iff this status represents success.
  bool ok() const { return state_ == nullptr; }

  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }

  /// The error message; empty for OK statuses.
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->msg;
  }

  /// "ok" or "<code>: <message>".
  std::string ToString() const;

  /// Returns a copy of this status with `context` prepended to the message,
  /// separated by ": ". OK statuses are returned unchanged. Used to build
  /// error traces as a failure propagates up a call chain.
  Status WithContext(const std::string& context) const;

  /// Aborts the process with the status message if not OK. For use in
  /// examples and benches where an error is unrecoverable.
  void CheckOK() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code() == b.code() && a.message() == b.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };

  Status(StatusCode code, std::string msg)
      : state_(std::make_unique<State>(State{code, std::move(msg)})) {}

  void CopyFrom(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }

  // nullptr means OK.
  std::unique_ptr<State> state_;
};

/// A command's exit code for `status`: 0 when OK; otherwise prints
/// "<program>: <status>" to stderr and returns 1, an ordinary failure
/// rather than CheckOK's abort.
int ExitStatus(const char* program, const Status& status);

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is an error.
#define BOLTON_RETURN_IF_ERROR(expr)                  \
  do {                                                \
    ::bolton::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                        \
  } while (false)

}  // namespace bolton

#endif  // BOLTON_UTIL_STATUS_H_
