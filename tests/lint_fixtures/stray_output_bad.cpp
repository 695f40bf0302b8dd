// scaa-lint-fixture: as=src/msg/log_dump.cpp expect=stray-output
//
// Library code writing to stdout/stderr directly: stdout is machine-parsed
// report output and stderr carries progress and errors, and both belong to
// the CLI layer alone. Every site below must be flagged.
//
// NOT COMPILED: lint fixture only; tools/scaa_lint.py --self-test reads it.
#include <cstdio>
#include <iostream>

namespace scaa::msg {

void dump_count(int n) {
  std::cout << "frames: " << n << '\n';   // flagged: std::cout
}

void warn_direct(const char* what) {
  std::cerr << "warning: " << what << '\n';  // flagged: std::cerr
}

void dump_c_style(int n) {
  std::printf("frames: %d\n", n);         // flagged: printf()
  std::fprintf(stderr, "note: %d\n", n);  // flagged: fprintf()
}

}  // namespace scaa::msg
