#include "storage/fd_appender.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace hermes {

namespace {

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

Result<FdAppender> FdAppender::Open(const std::string& path) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open failed for", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status err = Status::IOError(ErrnoMessage("fstat failed for", path));
    ::close(fd);
    return err;
  }
  return FdAppender(fd, path, static_cast<std::uint64_t>(st.st_size));
}

FdAppender::~FdAppender() {
  if (fd_ >= 0) ::close(fd_);
}

FdAppender::FdAppender(FdAppender&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      size_(other.size_),
      synced_size_(other.synced_size_) {
  other.fd_ = -1;
  other.size_ = 0;
  other.synced_size_ = 0;
}

FdAppender& FdAppender::operator=(FdAppender&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    size_ = other.size_;
    synced_size_ = other.synced_size_;
    other.fd_ = -1;
    other.size_ = 0;
    other.synced_size_ = 0;
  }
  return *this;
}

Status FdAppender::Append(const void* data, std::size_t len) {
  if (fd_ < 0) return Status::IOError("FdAppender not open: " + path_);
  const char* p = static_cast<const char*>(data);
  std::size_t remaining = len;
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write failed for", path_));
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
    size_ += static_cast<std::uint64_t>(n);
  }
  return Status::OK();
}

Status FdAppender::Sync() {
  if (fd_ < 0) return Status::IOError("FdAppender not open: " + path_);
#if defined(__linux__)
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fdatasync failed for", path_));
  }
#else
  if (::fsync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fsync failed for", path_));
  }
#endif
  synced_size_ = size_;
  return Status::OK();
}

Status FdAppender::Truncate() {
  if (fd_ < 0) return Status::IOError("FdAppender not open: " + path_);
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError(ErrnoMessage("ftruncate failed for", path_));
  }
  size_ = 0;
  synced_size_ = 0;
  // O_APPEND writes always land at the (new) end of file, so no seek is
  // needed; sync the truncation itself so a crash cannot resurrect the
  // old contents.
  return Sync();
}

Status FdAppender::DropUnsynced() {
  if (fd_ < 0) return Status::IOError("FdAppender not open: " + path_);
  if (::ftruncate(fd_, static_cast<off_t>(synced_size_)) != 0) {
    return Status::IOError(ErrnoMessage("ftruncate failed for", path_));
  }
  size_ = synced_size_;
  return Status::OK();
}

[[nodiscard]] Status SyncParentDirectory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string dir = ".";
  if (slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  int fd = -1;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::IOError(ErrnoMessage("open failed for", dir));
  const Status st =
      ::fsync(fd) == 0 ? Status::OK()
                       : Status::IOError(ErrnoMessage("fsync failed for", dir));
  ::close(fd);
  return st;
}

}  // namespace hermes
