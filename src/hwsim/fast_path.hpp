// Fused analytic replay of one PE chunk run (fast sim mode).
//
// The elastic-pipeline semantics of a chunk run are fully determined by
// integer occupancy state: which tuple passes which filter stage depends
// only on the payload bytes, and *when* each module moves depends only
// on FIFO occupancies, the AXI round-robin state and the read latency.
// FastChunkEngine exploits this: it precomputes every data decision
// (filter pass/drop, aggregate folds, transformed output bits) directly
// from DRAM, then replays the cycle-by-cycle timing with plain integer
// counters instead of ticking module objects and moving BitVectors
// through deques. The replay is cycle-exact by construction, so the
// write-back phase can synthesize the very same stats, counters, stream
// transfer/high-water marks, registers, metrics and trace events the
// tick loop would have produced — byte-identical, at a fraction of the
// wall-clock cost.
//
// Structural-event boundaries drop back to the cycle-exact path: any
// foreign in-flight state at chunk start, a mid-chunk watchdog trip or
// deadlock horizon, invalid register programming, or an out-of-bounds
// DRAM window all make run() return false without mutating anything, and
// the caller re-runs the chunk through SimKernel::run_until so every
// raise/fault behavior is bit-preserved.
//
// The timing replay is a pure function of a small input (interconnect
// configuration and cursor, stream depths, chunk geometry and each filter
// stage's pass/drop pattern), so each PE memoises its outcomes: a chunk
// whose input was replayed before skips the replay and writes back the
// stored outcome through the same write-back code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ndpgen::hwsim {

class SimKernel;
class SimulatedPE;

/// Everything the timing replay determines: the counters the write-back
/// phase applies to the PE's modules, its streams and the interconnect.
struct ReplayOutcome {
  std::uint64_t cycles = 0;  ///< Start tick to finish tick.
  std::uint64_t useful = 0;
  std::uint64_t stalled = 0;
  std::uint64_t tuples_produced = 0;
  std::vector<std::uint64_t> stage_pass;  ///< Per filter stage.
  std::vector<std::uint64_t> stage_drop;
  std::vector<std::uint64_t> stage_stall_in;
  std::vector<std::uint64_t> stage_stall_out;
  std::uint64_t agg_folded = 0;
  std::uint64_t transformed = 0;
  std::uint64_t ob_tuples = 0;
  std::uint64_t store_payload = 0;
  std::uint64_t store_bytes = 0;
  /// Per stream, in the order words_in, tuple streams, words_out.
  std::vector<std::uint64_t> stream_pushes;
  std::vector<std::uint32_t> stream_high_water;
  std::uint64_t read_beats = 0;
  std::uint64_t write_beats = 0;
  std::uint64_t total_beats = 0;
  std::uint64_t contended_cycles = 0;
  std::size_t rr_cursor = 0;  ///< Interconnect round-robin cursor after.
};

/// One PE's memo of replay outcomes, keyed on the complete encoded replay
/// input. Bounded by kByteCap: an insert that would pass it clears the
/// memo first.
class ReplayMemo {
 public:
  using Key = std::vector<std::uint64_t>;
  static constexpr std::size_t kByteCap = 256 * 1024;

  /// The stored outcome for `key`, or null.
  [[nodiscard]] const ReplayOutcome* find(const Key& key);
  void insert(Key key, const ReplayOutcome& outcome);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Approximate heap footprint of the stored entries.
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  std::unordered_map<Key, ReplayOutcome, KeyHash> entries_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
};

class FastChunkEngine {
 public:
  /// Attempts to run the chunk started on `pe` (START written, run not
  /// yet begun) to completion analytically. Returns true when the fast
  /// path applied; false means nothing was touched and the caller must
  /// fall back to the cycle-exact run_until loop.
  static bool run(SimKernel& kernel, SimulatedPE& pe,
                  std::uint64_t max_cycles);
};

}  // namespace ndpgen::hwsim
