// What a cooperative fleet knows about one engine without stepping it.
//
// A fleet round used to ask every live engine whether its step could act
// (EngineInstance::idle, which walks the engine's state and its service
// chain). Almost always the answer is no: an engine acts only when a
// completion reached its service, a ready job meets a nonzero grant, or
// its clock fence — a backoff release, an attempt deadline, a held
// completion — has arrived. WakeSummary keeps exactly those facts, read
// once after each step, so a round can rule an engine out from a few
// flat bytes:
//   * wake_at: engine.next_deadline() after its last step;
//   * has_ready: the engine had ready jobs after its last step;
//   * done: the run has finished;
//   * delivered (held by the caller, at a stable address registered with
//     the engine's service through ExecutionService::set_delivery_flag):
//     the service received a completion since the engine last stepped, or
//     the engine could act even under a zero grant when it last stepped.
//
// Why skipping is exact: idle(grant) is false only on a ready job meeting
// a nonzero grant (has_ready), an expired backoff or attempt deadline, or
// a service that is not quiet(). A service turns non-quiet only through a
// delivery (which sets the byte) or, in a fault injector, through time
// reaching a held completion's release (which next_deadline() covers);
// deadlines and ready jobs change only inside the engine's own step. So
// when may_act() is false and nothing on the shared queue is due now,
// idle(grant) holds — the caller may still run idle(grant) as a final
// guard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "wms/engine.hpp"

namespace pga::waas {

/// Slack of every "due now" comparison; matches the engine's and the fault
/// injector's, so wake_at <= now + kWakeEps whenever one of theirs holds.
inline constexpr double kWakeEps = 1e-9;

struct WakeSummary {
  double wake_at = std::numeric_limits<double>::infinity();
  bool has_ready = false;
  bool done = false;

  /// Re-reads `engine` after one of its steps, or at admission, and
  /// rewrites `delivered` (the byte its service sets) to !idle(0).
  void refresh(wms::EngineInstance& engine, std::uint8_t& delivered) {
    wake_at = engine.next_deadline();
    has_ready = engine.ready_count() > 0;
    done = engine.is_done();
    delivered = engine.idle(0) ? 0 : 1;
  }

  /// False only when, with nothing on the shared queue due at `now`, the
  /// engine's step under `grant` is a no-op (engine.idle(grant) holds).
  [[nodiscard]] bool may_act(double now, std::size_t grant,
                             std::uint8_t delivered) const {
    return delivered != 0 || (has_ready && grant > 0) ||
           wake_at <= now + kWakeEps;
  }
};

}  // namespace pga::waas
