#pragma once

/// @file proc.hpp
/// File-descriptor helpers for the FIFO tap (exp::FifoTap): an owning fd
/// and a full write that reports a vanished reader instead of failing.

#include <cstddef>

namespace scaa::util {

/// Owning file descriptor (close-on-destroy, move-only).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const noexcept { return fd_; }
  explicit operator bool() const noexcept { return fd_ >= 0; }

  /// Give up ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Close the current fd (if any) and adopt @p fd.
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Write all @p size bytes of @p data to @p fd, retrying on EINTR and
/// short writes. Returns false on any other error (errno is preserved for
/// the caller to report). Callers must ignore SIGPIPE if the fd can be a
/// pipe whose reader may vanish.
bool write_all(int fd, const void* data, std::size_t size) noexcept;

}  // namespace scaa::util
