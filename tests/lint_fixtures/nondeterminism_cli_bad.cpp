// scaa-lint-fixture: as=src/cli/bench_main.cpp expect=nondeterminism
//
// Layer-scoping check: the CLI layer is NOT blessed. Its seeds come from
// argv and its reports must be byte-identical across runs, so a wall-clock
// read or an environment knob in src/cli/ is flagged exactly like the
// library sites in nondeterminism_bad.cpp.
//
// NOT COMPILED: lint fixture only; tools/scaa_lint.py --self-test reads it.
#include <cstdlib>
#include <ctime>

namespace scaa::cli {

long wall_stamp() {
  return std::time(nullptr);     // flagged: time()
}

const char* thread_override() {
  return std::getenv("SCAA_THREADS");  // flagged: getenv()
}

}  // namespace scaa::cli
