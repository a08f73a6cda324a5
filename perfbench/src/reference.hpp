// A fixed reference workload, timed next to every repetition.
//
// The benchmark's hosts are shared: a neighbour on the same cache can slow
// memory-heavy code by tens of percent for minutes at a time, which moves a
// run's wall time far more than the changes it is meant to judge. The
// reference is a small event loop of its own (a binary heap of timestamps,
// each event a read-modify-write of a random slot of an 8 MiB table), so it
// slows down with the simulator on a busy host but shares none of its code:
// a change to the simulator leaves it where it was. Its time is the host's
// speed factor by which the benchmark rescales its timings.
#pragma once

namespace perfbench {

/// Mean host seconds of `threads` concurrent passes of the reference
/// workload, one per thread, so a parallel repetition's host speed is
/// sampled on as many processors as it runs on.
double reference_seconds(int threads);

/// What one pass takes on a calm host: the 4-vCPU Xeon, GCC 12.2 Release
/// build the benchmark was calibrated on. It only sets the scale of the
/// rescaled timings; comparisons between builds do not depend on it.
constexpr double kReferenceCalmS = 0.15;

}  // namespace perfbench
