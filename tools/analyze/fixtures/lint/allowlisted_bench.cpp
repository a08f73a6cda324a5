// Negative fixture: wall-clock use that lint.conf allowlists (a timing
// harness, the kind of file a path allowlist exists for). No diagnostics
// may fire here.
#include <chrono>

inline double bench_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
