#ifndef BOLTON_UTIL_RESULT_H_
#define BOLTON_UTIL_RESULT_H_

#include <utility>
#include <variant>

#include "util/status.h"

namespace bolton {

/// A value-or-error type: holds either a `T` or a non-OK `Status`.
///
/// Mirrors `arrow::Result`. Functions that produce a value but can fail
/// return `Result<T>`; callers either branch on `ok()` or use
/// `BOLTON_ASSIGN_OR_RETURN` to unwrap-with-early-return.
///
///     Result<Dataset> LoadCsv(const std::string& path);
///
///     Status Run() {
///       BOLTON_ASSIGN_OR_RETURN(Dataset ds, LoadCsv("train.csv"));
///       ...
///     }
template <typename T>
class Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Constructs a failed result. `status` must not be OK; an OK status here
  /// indicates a logic error and is converted to an Internal error.
  Result(Status status) : rep_(std::move(status)) {  // NOLINT
    if (std::get<Status>(rep_).ok()) {
      rep_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// The status: OK if a value is held.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(rep_);
  }

  /// The held value. On an error, aborts with Status::CheckOK()'s
  /// "fatal status: <status>".
  const T& value() const& {
    CheckHasValue();
    return std::get<T>(rep_);
  }
  T& value() & {
    CheckHasValue();
    return std::get<T>(rep_);
  }
  T&& value() && {
    CheckHasValue();
    return std::get<T>(std::move(rep_));
  }

  /// Moves the value out; aborts like value() on an error.
  T MoveValue() {
    CheckHasValue();
    return std::get<T>(std::move(rep_));
  }

  /// Returns the value or `fallback` when this result is an error.
  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(rep_) : std::move(fallback);
  }

 private:
  void CheckHasValue() const {
    if (!ok()) std::get<Status>(rep_).CheckOK();
  }

  std::variant<T, Status> rep_;
};

// Internal: token pasting helpers for unique temporary names.
#define BOLTON_CONCAT_IMPL(x, y) x##y
#define BOLTON_CONCAT(x, y) BOLTON_CONCAT_IMPL(x, y)

/// Evaluates `rexpr` (a Result<T> expression); on error returns its status
/// from the enclosing function, otherwise declares `lhs` bound to the value.
#define BOLTON_ASSIGN_OR_RETURN(lhs, rexpr)                          \
  BOLTON_ASSIGN_OR_RETURN_IMPL(BOLTON_CONCAT(_result_, __LINE__),    \
                               lhs, rexpr)

#define BOLTON_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value();

}  // namespace bolton

#endif  // BOLTON_UTIL_RESULT_H_
