// Machine probes taken during every run. None of them runs repository code.
// calib_ms and effective_cores are only recorded; speed_probe_ms sets the
// host speed the end-to-end timings are reported at (README.md, "Noise").
#pragma once

namespace perfbench {

/// Wall time of a fixed loop that runs no repository code: fault in and
/// release 64 MiB of fresh pages, then chase 2M dependent loads through a
/// random 4 MiB cycle. Over 150 paired samples these two tracked the
/// analysis engine's slow vCPU phases best (correlation 0.79 and 0.65),
/// while an in-cache integer loop did not (0.45).
[[nodiscard]] double calib_ms();

/// Cores that actually ran in parallel: four threads each spin a fixed
/// amount of work; one thread's time for the same work, times four, over
/// the four-thread wall time.
[[nodiscard]] double effective_cores();

/// Wall time of a short, fixed, branch-heavy job that runs no repository
/// code and allocates nothing: fill a 128 KiB buffer with the same
/// pseudo-random doubles every time and sort it (about 1.1 ms at full
/// speed). It slows down in the host's slow phases as the service does;
/// an integer loop and a pointer chase tracked them less well.
[[nodiscard]] double speed_probe_ms();

/// speed_probe_ms() of the 4-vCPU KVM guest the benchmark was built on,
/// running at full speed. The end-to-end timings are scaled to this speed.
inline constexpr double kReferenceProbeMs = 1.1;

}  // namespace perfbench
