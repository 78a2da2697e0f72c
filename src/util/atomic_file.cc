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

}  // namespace

Status AtomicWriteFile(const std::string& tmp_path, const std::string& path,
                       const std::string& dir, const std::string& content,
                       mode_t mode) {
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  mode);
  if (fd < 0) return ErrnoIOError("cannot open", tmp_path);
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = ErrnoIOError("write failed for", tmp_path);
      ::close(fd);
      return status;
    }
    written += static_cast<size_t>(n);
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
  const size_t magic_end = content.find('\n');
  if (magic_end == std::string::npos ||
      std::string_view(content).substr(0, magic_end) != magic) {
    const std::string_view found =
        std::string_view(content).substr(0, std::min<size_t>(magic_end, 64));
    return Status::InvalidArgument(StrFormat(
        "%s: expected a '%.*s' file, found '%.*s'", path.c_str(),
        static_cast<int>(magic.size()), magic.data(),
        static_cast<int>(found.size()), found.data()));
  }
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

}  // namespace bolton
