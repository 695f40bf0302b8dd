// scaa-lint-fixture: as=src/sim/entropy.cpp expect=nondeterminism
//
// Library code drawing entropy / wall clock from the environment: every
// site below must be flagged. Simulations are pure functions of
// (scenario, strategy, seed); none of these belong outside src/util/rng.*
// (nondeterminism_cli_bad.cpp holds the CLI layer to the same rule).
//
// NOT COMPILED: lint fixture only; tools/scaa_lint.py --self-test reads it.
#include <cstdlib>
#include <ctime>
#include <random>

namespace scaa::sim {

unsigned bad_seed() {
  std::random_device rd;         // flagged: std::random_device
  return rd();
}

int bad_jitter() {
  return std::rand() % 7;        // flagged: rand()
}

void bad_reseed() {
  std::srand(42);                // flagged: srand()
}

long bad_stamp() {
  return std::time(nullptr);     // flagged: time()
}

const char* bad_knob() {
  return std::getenv("SCAA_HIDDEN_KNOB");  // flagged: getenv()
}

}  // namespace scaa::sim
