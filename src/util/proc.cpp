#include "util/proc.hpp"

#include <unistd.h>

#include <cerrno>

namespace scaa::util {

void UniqueFd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool write_all(int fd, const void* data, std::size_t size) noexcept {
  const char* p = static_cast<const char*>(data);
  std::size_t left = size;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE and friends: reader gone, keep working
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace scaa::util
