// Tests for the fd helpers under the FIFO tap: UniqueFd ownership and
// write_all's full writes, including its reader-gone path.

#include <gtest/gtest.h>

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#include <string>

#include "util/proc.hpp"

namespace {

using namespace scaa;

/// Both ends of a fresh pipe(2), owned.
struct Pipe {
  util::UniqueFd read_end;
  util::UniqueFd write_end;
};

Pipe open_pipe() {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  return {util::UniqueFd(fds[0]), util::UniqueFd(fds[1])};
}

TEST(UniqueFd, ClosesOnDestroy) {
  Pipe pipe = open_pipe();
  const int raw = pipe.read_end.get();
  ASSERT_GE(raw, 0);
  { util::UniqueFd owner(pipe.read_end.release()); }
  // The fd must be closed now: fcntl on it fails with EBADF.
  EXPECT_EQ(::fcntl(raw, F_GETFD), -1);
  EXPECT_EQ(errno, EBADF);
}

TEST(UniqueFd, MoveTransfersOwnership) {
  Pipe pipe = open_pipe();
  const int raw = pipe.write_end.get();
  util::UniqueFd moved(std::move(pipe.write_end));
  EXPECT_EQ(pipe.write_end.get(), -1);
  EXPECT_EQ(moved.get(), raw);
  util::UniqueFd assigned;
  assigned = std::move(moved);
  EXPECT_EQ(moved.get(), -1);
  EXPECT_EQ(assigned.get(), raw);
  EXPECT_EQ(::fcntl(raw, F_GETFD) >= 0, true);
}

TEST(WriteAll, RoundTrips) {
  Pipe pipe = open_pipe();
  const std::string frame = "P 42\n";
  ASSERT_TRUE(
      util::write_all(pipe.write_end.get(), frame.data(), frame.size()));
  char buf[16] = {};
  const ssize_t n = ::read(pipe.read_end.get(), buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n)), frame);
}

TEST(WriteAll, ReturnsFalseWhenReaderGone) {
  // write_all must never kill the caller: the tap's simulation keeps
  // running after its reader hangs up.
  auto* previous = std::signal(SIGPIPE, SIG_IGN);
  Pipe pipe = open_pipe();
  pipe.read_end.reset();
  const std::string frame = "orphaned";
  EXPECT_FALSE(
      util::write_all(pipe.write_end.get(), frame.data(), frame.size()));
  std::signal(SIGPIPE, previous);
}

}  // namespace
