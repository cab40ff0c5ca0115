// The host-speed probe: a fixed mix of the benchmark's own work (vectorised
// and ordered floating-point arithmetic, branchy integer code and memory
// streaming, as a training step mixes them), run on the same number of
// threads as the workload it brackets, and the CPU time it takes per thread.
//
// The benchmark runs on cores it shares with other tenants, and the same
// batch can take twice the time and twice the CPU time from one run to the
// next: the cores themselves run slower or faster, and they vary from one
// tenth of a second to the next as well. Probes taken before the first timed
// iteration and after every one see the same cores, so a run's compute time
// (all of a cold iteration; the workers' share of a fleet wave, whose poll
// waits stay as measured) is reported rescaled to a reference host:
// seconds × kProbeRefS / (the median probe round of the run). The probe's code lives here, not in the
// repository, so no change to the program moves it.
#pragma once

#include <vector>

namespace perfbench {

/// About the median probe round on the baseline host (see README.md), so
/// rescaled times read as seconds on that host.
inline constexpr double kProbeRefS = 0.05;

/// Runs probe rounds on `threads` threads for about `budget_s` seconds (one
/// warm-up round, then at least five), and appends to `rounds` each kept
/// round's process CPU time divided by `threads`.
void probe(int threads, double budget_s, std::vector<double>& rounds);

}  // namespace perfbench
