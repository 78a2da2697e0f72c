#ifndef BOLTON_UTIL_ATOMIC_FILE_H_
#define BOLTON_UTIL_ATOMIC_FILE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace bolton {

/// Crash-safe whole-file replacement: write `content` to `tmp_path`
/// (created with `mode` less the umask), fsync, rename over `path`, then
/// fsync `dir` so the rename itself is durable. After a crash at any point
/// the destination holds either the old contents or the new, never a mix.
/// Checkpoints and the serve budget store keep the owner-only default;
/// released model files pass 0666 like any other output file.
Status AtomicWriteFile(const std::string& tmp_path, const std::string& path,
                       const std::string& dir, const std::string& content,
                       mode_t mode = 0600);

/// 64-bit FNV-1a hash of `data`.
uint64_t Fnv1a64(std::string_view data);

/// Checksummed text files (checkpoints, serve budget state) are a magic
/// line naming format and version, a body of '\n'-terminated lines, and a
/// trailing "checksum <16 hex digits>" line holding the FNV-1a hash of
/// every byte before it.
///
/// Appends that checksum line to `*content` in place; `*content` must
/// already hold the magic line and the body.
void AppendChecksumLine(std::string* content);

/// Reads a checksummed text file and returns its body, with the magic and
/// checksum lines stripped. NotFound when the path does not exist;
/// InvalidArgument naming both versions when the first line is not
/// `magic`; IOError when the checksum line is missing or does not match
/// (a truncated or corrupted file).
Result<std::string> ReadChecksummedFile(const std::string& path,
                                        std::string_view magic);

}  // namespace bolton

#endif  // BOLTON_UTIL_ATOMIC_FILE_H_
