#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/strings.h"

namespace bolton {

namespace {

Status ErrnoIOError(const std::string& what, const std::string& path) {
  return Status::IOError(StrFormat("%s %s: %s", what.c_str(), path.c_str(),
                                   std::strerror(errno)));
}

/// Reads a whole file into a string. NotFound when the path does not
/// exist (distinguishes "no state yet" from real I/O failures).
Result<std::string> ReadFileToString(const std::string& path) {
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound(StrFormat("no such file: %s", path.c_str()));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return ErrnoIOError("cannot open", path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (in.bad()) return ErrnoIOError("read failed for", path);
  return content;
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoIOError("write failed for", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// The hash field that ends a record log line.
std::string RecordChecksum(std::string_view fields) {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(Fnv1a64(fields)));
}

/// Refuses `content` unless its first line is `magic`, naming both.
Status CheckMagicLine(const std::string& path, std::string_view content,
                      std::string_view magic) {
  const size_t magic_end = content.find('\n');
  if (magic_end != std::string::npos && content.substr(0, magic_end) == magic) {
    return Status::OK();
  }
  const std::string_view found =
      content.substr(0, std::min<size_t>(magic_end, 64));
  return Status::InvalidArgument(StrFormat(
      "%s: expected a '%.*s' file, found '%.*s'", path.c_str(),
      static_cast<int>(magic.size()), magic.data(),
      static_cast<int>(found.size()), found.data()));
}

}  // namespace

Status AtomicWriteFile(const std::string& tmp_path, const std::string& path,
                       const std::string& dir, const std::string& content,
                       mode_t mode) {
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  mode);
  if (fd < 0) return ErrnoIOError("cannot open", tmp_path);
  Status written = WriteAll(fd, content, tmp_path);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  if (::fsync(fd) != 0) {
    Status status = ErrnoIOError("fsync failed for", tmp_path);
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0) return ErrnoIOError("close failed for", tmp_path);
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return ErrnoIOError("rename failed for", path);
  }
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    // Durability of the rename itself; best-effort on filesystems that
    // reject directory fsync.
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, const std::string& content,
                       mode_t mode) {
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  return AtomicWriteFile(path + ".tmp", path, dir, content, mode);
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void AppendChecksumLine(std::string* content) {
  *content += StrFormat("checksum %016llx\n", static_cast<unsigned long long>(
                                                  Fnv1a64(*content)));
}

Result<std::string> ReadChecksummedFile(const std::string& path,
                                        std::string_view magic) {
  BOLTON_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  // The version check comes first, so a file in another format or version
  // is refused by name rather than reported as corrupt.
  BOLTON_RETURN_IF_ERROR(CheckMagicLine(path, content, magic));
  const size_t magic_end = content.find('\n');
  const size_t checksum_at = content.rfind("\nchecksum ");
  if (checksum_at == std::string::npos) {
    return Status::IOError(path + ": missing checksum line (truncated file)");
  }
  const size_t body_end = checksum_at + 1;  // keep the body's last '\n'
  const std::string expected = StrFormat(
      "checksum %016llx",
      static_cast<unsigned long long>(
          Fnv1a64(std::string_view(content).substr(0, body_end))));
  if (StripWhitespace(std::string_view(content).substr(body_end)) !=
      expected) {
    return Status::IOError(
        path + ": checksum mismatch (truncated or corrupted file)");
  }
  content.erase(body_end);
  content.erase(0, magic_end + 1);
  return content;
}

void AppendLogRecord(std::string_view fields, std::string* log) {
  log->append(fields);
  *log += ' ';
  *log += RecordChecksum(fields);
  *log += '\n';
}

Result<RecordLog> ReadRecordLog(const std::string& path,
                                std::string_view magic) {
  BOLTON_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  BOLTON_RETURN_IF_ERROR(CheckMagicLine(path, content, magic));
  RecordLog log;
  for (size_t at = content.find('\n') + 1; at < content.size();) {
    const size_t newline = content.find('\n', at);
    const size_t end = std::min(newline, content.size());
    const std::string_view line(content.data() + at, end - at);
    const size_t split = line.rfind(' ');
    const bool intact = newline != std::string::npos &&
                        split != std::string_view::npos &&
                        line.substr(split + 1) ==
                            RecordChecksum(line.substr(0, split));
    if (intact) {
      log.records.emplace_back(line.substr(0, split));
    } else if (end + 1 >= content.size()) {
      log.torn_bytes = content.size() - at;  // the last append tore
    } else {
      return Status::IOError(StrFormat(
          "%s: line %zu is a bad record followed by others (corrupted file)",
          path.c_str(), log.records.size() + 2));
    }
    at = end + 1;
  }
  return log;
}

Status AppendAndSync(int fd, std::string_view data, const std::string& path) {
  BOLTON_RETURN_IF_ERROR(WriteAll(fd, data, path));
  if (::fdatasync(fd) != 0) return ErrnoIOError("fdatasync failed for", path);
  return Status::OK();
}

}  // namespace bolton
