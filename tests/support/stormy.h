// The chaos suite's fuzzer regime, shared with the lossy kernel's pins,
// and printable ARQ names for assertion messages.
#pragma once

#include "core/lossy_route.h"
#include "net/faults.h"

namespace uesr::test_support {

/// Every fault class engaged at once — baseline loss, duplication and
/// corruption on the channel, plus sampled crash windows, corruption
/// bursts and brownouts per trial.
inline core::LossyTrafficConfig stormy(core::ArqKind arq) {
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.05;
  cfg.link.dup = 0.02;
  cfg.link.corrupt = 0.03;
  cfg.link.latency_max = 3;
  cfg.window.max_retries = 8;
  cfg.window.frames_per_message = 3;
  cfg.window.window = 2;
  cfg.arq = arq;
  net::ChaosConfig chaos;
  chaos.horizon = 1 << 10;
  chaos.slot = 64;
  chaos.crash_rate = 0.05;
  chaos.crash_min = 16;
  chaos.crash_max = 96;
  chaos.corrupt_burst_rate = 0.05;
  chaos.corrupt_level = 0.4;
  chaos.burst_min = 8;
  chaos.burst_max = 48;
  chaos.brownout_rate = 0.03;
  chaos.brownout_min = 8;
  chaos.brownout_max = 48;
  cfg.chaos = chaos;
  return cfg;
}

/// A printable name for `arq` (assertion messages).
inline const char* arq_name(core::ArqKind arq) {
  return arq == core::ArqKind::kStopAndWait ? "StopAndWait"
                                            : "SelectiveRepeat";
}

}  // namespace uesr::test_support
