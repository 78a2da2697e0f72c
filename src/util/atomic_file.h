#ifndef BOLTON_UTIL_ATOMIC_FILE_H_
#define BOLTON_UTIL_ATOMIC_FILE_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace bolton {

/// Crash-safe whole-file replacement: write `content` to `tmp_path`
/// (created with `mode` less the umask), fsync, rename over `path`, then
/// fsync `dir` so the rename itself is durable. After a crash at any point
/// the destination holds either the old contents or the new, never a mix,
/// and a failed write leaves the old contents in place.
Status AtomicWriteFile(const std::string& tmp_path, const std::string& path,
                       const std::string& dir, const std::string& content,
                       mode_t mode = 0600);

/// The same, through `path` + ".tmp" in `path`'s own directory: the one
/// place every output file derives its temp path and directory.
/// Checkpoints and the serve budget store pass the owner-only 0600;
/// released models and telemetry exports pass 0666 like any other output
/// file.
Status AtomicWriteFile(const std::string& path, const std::string& content,
                       mode_t mode);

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

/// Append-only record logs (the serve budget journal) are a magic line
/// followed by one record per line: the record's fields, a space, and the
/// 16-hex-digit FNV-1a hash of the fields. Each record is checked on its
/// own, so a log is read back record by record after a crash.
///
/// Appends `fields` (no '\n') to `*log` as one framed record.
void AppendLogRecord(std::string_view fields, std::string* log);

struct RecordLog {
  /// The fields of every intact record, in file order.
  std::vector<std::string> records;
  /// Bytes of a torn last record — incomplete, or failing its checksum —
  /// which are not in `records`; 0 when the log ends cleanly.
  size_t torn_bytes = 0;
};

/// Reads a record log. NotFound when the path does not exist;
/// InvalidArgument naming both when the first line is not `magic`; IOError
/// when a bad record is followed by another line (corruption, not a torn
/// append).
Result<RecordLog> ReadRecordLog(const std::string& path,
                                std::string_view magic);

/// Appends `data` to the file open on `fd` (opened with O_APPEND), then
/// fdatasyncs it. After a failure the file may end in any prefix of
/// `data`, and the kernel may have dropped pages it wrote, so the caller
/// must not append to it again. `path` names the file in errors.
Status AppendAndSync(int fd, std::string_view data, const std::string& path);

}  // namespace bolton

#endif  // BOLTON_UTIL_ATOMIC_FILE_H_
