// Shared helpers for the experiment harness (bench/).
//
// Every binary regenerates one experiment row-set from DESIGN.md §4 and
// prints a markdown table; EXPERIMENTS.md records the expected shapes.
// Keep runtimes modest: these run in CI-style loops.
//
// Threading: every driver shares one knob — `--threads=N` on the command
// line, else the UESR_THREADS environment variable, else hardware
// concurrency.  `--threads=1` reproduces the serial behaviour exactly:
// the drivers fan trials out with util::parallel_reduce, whose merged
// results are bit-identical for any thread count (see util/parallel.h),
// so the knob only changes wall-clock (the `s`/`ms` timing columns),
// never a data cell.
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "util/cli.h"
#include "util/parallel.h"

namespace uesr::bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "\n## " << id << "\n" << claim << "\n\n";
}

/// The shared threads knob: --threads=N beats UESR_THREADS beats hardware
/// concurrency.  Call once at the top of main and pass the result to the
/// driver's ThreadPool / verification calls.
inline unsigned threads_knob(int argc, const char* const* argv) {
  util::Cli cli(argc, argv);
  // Clamp before the unsigned conversion: a negative or absurd value must
  // not wrap into a billions-of-threads spawn request.
  std::int64_t v = cli.get_int("threads", 0);
  if (v < 0 || v > static_cast<std::int64_t>(util::kMaxThreads)) v = 0;
  return util::resolve_threads(static_cast<unsigned>(v));
}

/// One line under the banner recording how the run was parallelized, so
/// saved transcripts are self-describing.
inline void report_threads(unsigned threads) {
  std::cout << "threads: " << threads
            << "  (override with --threads=N or UESR_THREADS; results are "
               "thread-count invariant)\n";
}

}  // namespace uesr::bench
