#ifndef BOLTON_UTIL_STRINGS_H_
#define BOLTON_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace bolton {

/// Splits `text` on `sep`, keeping empty fields. Splitting "" yields {""}.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Parses a double / int with full-token validation (rejects trailing junk).
Result<double> ParseDouble(std::string_view text);
Result<int64_t> ParseInt(std::string_view text);
/// Like ParseInt over the full uint64 range; a leading '-' is rejected.
Result<uint64_t> ParseU64(std::string_view text);

/// One space-free token for the line-based on-disk formats: "-" stands for
/// the empty string and whitespace becomes '_'. DecodeToken maps "-" back
/// to "" and returns anything else unchanged.
std::string EncodeToken(const std::string& s);
std::string DecodeToken(const std::string& s);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escapes `s` for embedding inside a double-quoted JSON string. Lives in
/// util (not obs) so the structured-log JSONL sink can use it.
std::string JsonEscape(const std::string& s);

}  // namespace bolton

#endif  // BOLTON_UTIL_STRINGS_H_
