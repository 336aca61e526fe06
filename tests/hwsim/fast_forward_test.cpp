// Fast-forward kernel tests: the event-driven mode must produce exactly
// the state the tick-by-tick loop produces — same virtual time, same
// cycle classification, same stats, same memory — only faster.
#include "hwsim/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hwgen/register_map.hpp"
#include "hwgen/template_builder.hpp"
#include "hwsim/fast_path.hpp"
#include "hwsim/pe_sim.hpp"
#include "spec/parser.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {
namespace {

namespace hw = ndpgen::hwgen;

/// Sleeps until a fixed virtual cycle, then emits one token. Declares its
/// wake time through next_activity so fast mode can jump the gap.
class TimerModule final : public Module {
 public:
  TimerModule(Stream<int>* out, std::uint64_t wake_at)
      : Module("timer"), out_(out), wake_at_(wake_at) {}
  void cycle(std::uint64_t now) override {
    if (!fired_ && now >= wake_at_ && out_->can_push()) {
      out_->push(1);
      fired_ = true;
    }
  }
  [[nodiscard]] bool idle() const noexcept override { return fired_; }
  [[nodiscard]] std::uint64_t next_activity(
      std::uint64_t now) const noexcept override {
    if (fired_) return kNeverActive;
    return wake_at_ > now ? wake_at_ : now + 1;
  }

 private:
  Stream<int>* out_;
  std::uint64_t wake_at_;
  bool fired_ = false;
};

/// Consumes tokens and records the idle credit it was granted.
class CreditSink final : public Module {
 public:
  explicit CreditSink(Stream<int>* in) : Module("sink"), in_(in) {}
  void cycle(std::uint64_t) override {
    if (in_->can_pop()) {
      (void)in_->pop();
      ++popped;
    }
  }
  [[nodiscard]] std::uint64_t next_activity(
      std::uint64_t) const noexcept override {
    return kNeverActive;  // Purely reactive: the stream wakes the kernel.
  }
  void credit_idle_cycles(std::uint64_t cycles) noexcept override {
    credited += cycles;
  }
  int popped = 0;
  std::uint64_t credited = 0;

 private:
  Stream<int>* in_;
};

struct GapRun {
  std::uint64_t now;
  CycleStats stats;
  std::uint64_t credited;
};

GapRun run_gap(SimMode mode, std::uint64_t wake_at) {
  SimKernel kernel;
  kernel.set_mode(mode);
  auto* stream = kernel.make_stream<int>("wire");
  TimerModule timer(stream, wake_at);
  CreditSink sink(stream);
  kernel.add_module(&timer);
  kernel.add_module(&sink);
  kernel.run_until([&] { return sink.popped == 1; });
  return {kernel.now(), kernel.cycle_stats(), sink.credited};
}

TEST(FastForward, IdleGapCollapsesToArithmeticCredit) {
  const auto exact = run_gap(SimMode::kExact, 100'000);
  const auto fast = run_gap(SimMode::kFast, 100'000);
  EXPECT_EQ(exact.now, fast.now);
  EXPECT_EQ(exact.stats.useful, fast.stats.useful);
  EXPECT_EQ(exact.stats.stalled, fast.stats.stalled);
  EXPECT_EQ(exact.stats.idle, fast.stats.idle);
  // Both partitions account for every tick...
  EXPECT_EQ(fast.stats.total(), fast.now);
  // ...and fast mode covered (almost) the whole gap with arithmetic
  // credit rather than ticks, while exact mode never credits.
  EXPECT_EQ(exact.credited, 0u);
  EXPECT_GE(fast.credited, 99'000u);
}

TEST(FastForward, WatchdogTripsAtSameVirtualCycleUnderJumps) {
  auto trip_cycle = [](SimMode mode) {
    SimKernel kernel;
    kernel.set_mode(mode);
    auto* stream = kernel.make_stream<int>("wire");
    TimerModule timer(stream, 10'000);  // Far beyond the watchdog horizon.
    CreditSink sink(stream);
    kernel.add_module(&timer);
    kernel.add_module(&sink);
    kernel.set_watchdog(137);
    EXPECT_THROW(kernel.run_until([&] { return sink.popped == 1; }),
                 Error);
    return kernel.now();
  };
  EXPECT_EQ(trip_cycle(SimMode::kExact), trip_cycle(SimMode::kFast));
}

TEST(FastForward, DeadlockTimeoutAtSameVirtualCycle) {
  auto timeout_cycle = [](SimMode mode) {
    SimKernel kernel;
    kernel.set_mode(mode);
    auto* stream = kernel.make_stream<int>("wire");
    TimerModule timer(stream, 50'000);
    CreditSink sink(stream);
    kernel.add_module(&timer);
    kernel.add_module(&sink);
    EXPECT_THROW(
        kernel.run_until([&] { return sink.popped == 1; }, 1'000),
        Error);
    return kernel.now();
  };
  EXPECT_EQ(timeout_cycle(SimMode::kExact), timeout_cycle(SimMode::kFast));
}

// ---- Fused chunk replay vs exact ticking ------------------------------

hw::PEDesign design_for(const std::string& source, const std::string& name,
                        hw::DesignFlavor flavor = hw::DesignFlavor::kGenerated,
                        bool aggregation = false) {
  const auto module = spec::parse_spec(source);
  hw::TemplateOptions options;
  options.flavor = flavor;
  options.enable_aggregation = aggregation;
  return hw::build_pe_design(analysis::analyze_parser(module, name), options);
}

const std::string kPointSpec =
    "/* @autogen define parser P with chunksize = 32, input = Point3D, "
    "output = Point2D, mapping = { output.x = input.y, output.y = input.z } "
    "*/"
    "typedef struct { uint32_t x, y, z; } Point3D;"
    "typedef struct { uint32_t x, y; } Point2D;";

std::vector<std::uint8_t> make_points(std::uint32_t count) {
  std::vector<std::uint8_t> data;
  for (std::uint32_t i = 0; i < count; ++i) {
    support::put_u32(data, i);
    support::put_u32(data, 100 + i);
    support::put_u32(data, 1000 + i);
  }
  return data;
}

std::vector<std::uint8_t> to_vec(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

void expect_chunk_eq(const ChunkStats& a, const ChunkStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.tuples_in, b.tuples_in);
  EXPECT_EQ(a.tuples_out, b.tuples_out);
  EXPECT_EQ(a.payload_bytes_in, b.payload_bytes_in);
  EXPECT_EQ(a.payload_bytes_out, b.payload_bytes_out);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.cycles_useful, b.cycles_useful);
  EXPECT_EQ(a.cycles_stalled, b.cycles_stalled);
  EXPECT_EQ(a.cycles_idle, b.cycles_idle);
  EXPECT_EQ(a.stage_pass_counts, b.stage_pass_counts);
  EXPECT_EQ(a.stage_stall_in, b.stage_stall_in);
  EXPECT_EQ(a.stage_stall_out, b.stage_stall_out);
  EXPECT_EQ(a.agg_result, b.agg_result);
  EXPECT_EQ(a.agg_folded, b.agg_folded);
}

PEBenchConfig bench_config(SimMode mode) {
  PEBenchConfig config;
  config.sim_mode = mode;
  return config;
}

TEST(FastForward, FusedChunkMatchesExactTickingByteForByte) {
  const auto design = design_for(kPointSpec, "P");
  const auto points = make_points(32);
  auto run = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 3 /* ge */, 8);
    const ChunkStats stats = bench.run_chunk(0, 8192, points.size());
    return std::tuple{stats, to_vec(bench.memory().read_bytes(8192, 24 * 8)),
                      bench.observability().metrics.dump_json(),
                      bench.kernel().now(), bench.kernel().cycle_stats()};
  };
  const auto [se, me, je, ne, ce] = run(SimMode::kExact);
  const auto [sf, mf, jf, nf, cf] = run(SimMode::kFast);
  expect_chunk_eq(se, sf);
  EXPECT_EQ(me, mf);  // Output DRAM image.
  EXPECT_EQ(je, jf);  // Published metrics.
  EXPECT_EQ(ne, nf);  // Virtual clock.
  EXPECT_EQ(ce.useful, cf.useful);
  EXPECT_EQ(ce.stalled, cf.stalled);
  EXPECT_EQ(ce.idle, cf.idle);
}

TEST(FastForward, MultiChunkKeepsCumulativeStateIdentical) {
  const auto design = design_for(kPointSpec, "P");
  const auto points = make_points(32);
  auto run = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 4 /* lt */, 20);
    ChunkStats last;
    for (int i = 0; i < 3; ++i) {
      last = bench.run_chunk(0, 8192 + i * 4096, points.size());
    }
    return std::tuple{last, bench.kernel().now(),
                      bench.observability().metrics.dump_json()};
  };
  const auto [se, ne, je] = run(SimMode::kExact);
  const auto [sf, nf, jf] = run(SimMode::kFast);
  expect_chunk_eq(se, sf);
  EXPECT_EQ(ne, nf);
  EXPECT_EQ(je, jf);
}

TEST(FastForward, AggregateChunkMatchesExact) {
  const std::string spec =
      "typedef struct { uint64_t id; int32_t temp; float reading; } Sensor;"
      "/* @autogen define parser S with input = Sensor, output = Sensor */";
  const auto design =
      design_for(spec, "S", hw::DesignFlavor::kGenerated, true);
  std::vector<std::uint8_t> data;
  for (std::uint32_t i = 0; i < 24; ++i) {
    support::put_u64(data, i);
    support::put_u32(data, static_cast<std::uint32_t>(-40 + 7 * i));
    support::put_u32(data, 0x3F800000u + i);  // float bits
  }
  auto run = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, data);
    const auto& map = bench.pe().regmap();
    bench.pe().mmio_write(map.offset_of(hw::reg::kAggOp),
                          static_cast<std::uint32_t>(hw::AggOp::kSum));
    bench.pe().mmio_write(map.offset_of(hw::reg::kAggField), 1 /* temp */);
    bench.set_filter(0, 0, 6 /* nop */, 0);
    return bench.run_chunk(0, 8192, static_cast<std::uint32_t>(data.size()));
  };
  const ChunkStats exact = run(SimMode::kExact);
  const ChunkStats fast = run(SimMode::kFast);
  expect_chunk_eq(exact, fast);
  EXPECT_EQ(exact.agg_folded, 24u);
}

TEST(FastForward, StaticBaselinePaddingMatchesExact) {
  const auto design = design_for(kPointSpec, "P",
                                 hw::DesignFlavor::kHandcraftedBaseline);
  const auto points = make_points(2);  // 24 of 32 chunk bytes.
  auto run = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 6 /* nop */, 0);
    const ChunkStats stats =
        bench.run_chunk(0, 8192, static_cast<std::uint32_t>(points.size()));
    return std::pair{stats, to_vec(bench.memory().read_bytes(8192, 32768))};
  };
  const auto [se, me] = run(SimMode::kExact);
  const auto [sf, mf] = run(SimMode::kFast);
  expect_chunk_eq(se, sf);
  EXPECT_EQ(me, mf);
  // The hand-crafted baseline always writes the full 32 KiB chunk,
  // zero-padding past the two real tuples.
  EXPECT_EQ(se.bytes_written, 32768u);
}

TEST(FastForward, WatchdogMidChunkFallsBackToIdenticalRaise) {
  const auto design = design_for(kPointSpec, "P");
  const auto points = make_points(32);
  auto raise_cycle = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 6 /* nop */, 0);
    // Shorter than the AXI read latency: trips during the initial
    // response ramp, mid-fast-forward. The fused engine must detect the
    // horizon and drop back to exact replay, raising at the same cycle.
    bench.kernel().set_watchdog(3);
    std::string message;
    try {
      (void)bench.run_chunk(0, 8192, points.size());
    } catch (const Error& e) {
      message = e.what();
    }
    EXPECT_FALSE(message.empty());
    return std::pair{bench.kernel().now(), message};
  };
  EXPECT_EQ(raise_cycle(SimMode::kExact), raise_cycle(SimMode::kFast));
}

TEST(FastForward, ForeignModuleForcesExactFallbackWithSameResults) {
  // An unknown module type in the kernel is a structural boundary: the
  // fused engine must refuse and the exact path must still produce the
  // canonical results.
  class OpaqueModule final : public Module {
   public:
    OpaqueModule() : Module("opaque") {}
    void cycle(std::uint64_t) override {}
  };
  const auto design = design_for(kPointSpec, "P");
  const auto points = make_points(16);
  auto run = [&](SimMode mode, bool add_foreign) {
    PETestBench bench(design, bench_config(mode));
    OpaqueModule opaque;
    if (add_foreign) bench.kernel().add_module(&opaque);
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 3 /* ge */, 4);
    const ChunkStats stats = bench.run_chunk(0, 4096, points.size());
    return std::pair{stats, to_vec(bench.memory().read_bytes(4096, 12 * 8))};
  };
  const auto [se, me] = run(SimMode::kExact, false);
  const auto [sf, mf] = run(SimMode::kFast, true);
  expect_chunk_eq(se, sf);
  EXPECT_EQ(me, mf);
}

// ---- Survivor assembly: fused bit-move plan vs per-tuple chain -------

/// Everything a chunk run leaves behind that the two modes must agree on.
struct ChunkImage {
  ChunkStats stats;
  std::vector<std::uint8_t> out;  ///< Output DRAM window (one 32 KB block).
  std::string metrics;
  std::uint64_t now = 0;
};

constexpr std::uint64_t kOutAddr = 1 << 16;

/// Runs one chunk of `data` with every filter stage set to nop except
/// stage 0, which applies (`field`, `op`, `value`). Fast mode calls the
/// fused engine directly and requires it to apply, so a silent fall back
/// to exact ticking cannot pass for agreement.
ChunkImage run_image(const hw::PEDesign& design, SimMode mode,
                     const std::vector<std::uint8_t>& data,
                     std::uint32_t field, const std::string& op,
                     std::uint64_t value) {
  PETestBench bench(design, bench_config(mode));
  bench.memory().write_bytes(0, data);
  const std::uint32_t nop = design.operators.find("nop")->encoding;
  for (std::uint32_t s = 0; s < design.filter_stage_count(); ++s) {
    bench.set_filter(s, 0, nop, 0);
  }
  bench.set_filter(0, field, design.operators.find(op)->encoding, value);
  ChunkImage image;
  bench.start_chunk(0, kOutAddr, static_cast<std::uint32_t>(data.size()));
  if (mode == SimMode::kFast) {
    EXPECT_TRUE(FastChunkEngine::run(bench.kernel(), bench.pe(), 1'000'000));
  } else {
    bench.pe().run_to_completion();
  }
  image.stats = bench.pe().last_stats();
  image.out = to_vec(bench.memory().read_bytes(kOutAddr, 32768));
  image.metrics = bench.observability().metrics.dump_json();
  image.now = bench.kernel().now();
  return image;
}

/// Runs the chunk in both modes and checks they agree byte for byte;
/// returns the exact run for further checks.
ChunkImage expect_modes_agree(const hw::PEDesign& design,
                              const std::vector<std::uint8_t>& data,
                              std::uint32_t field, const std::string& op,
                              std::uint64_t value) {
  const ChunkImage exact =
      run_image(design, SimMode::kExact, data, field, op, value);
  const ChunkImage fast =
      run_image(design, SimMode::kFast, data, field, op, value);
  expect_chunk_eq(exact.stats, fast.stats);
  EXPECT_EQ(exact.out, fast.out);
  EXPECT_EQ(exact.metrics, fast.metrics);
  EXPECT_EQ(exact.now, fast.now);
  return exact;
}

std::vector<std::uint8_t> random_payload(std::size_t bytes,
                                         std::uint64_t seed) {
  std::vector<std::uint8_t> data(bytes);
  for (auto& b : data) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(seed >> 56);
  }
  return data;
}

// 160-bit input, no field on a 64-bit boundary after the first; the
// projection keeps three fields, so the copied input bits have gaps.
const std::string kMixedSpec =
    "/* @autogen define parser M with chunksize = 32, input = Mixed, "
    "output = Kept, mapping = { output.b = input.b, output.c = input.c, "
    "output.e = input.e } */"
    "typedef struct { uint8_t tag; uint32_t a; uint16_t b; int64_t c; "
    "uint8_t d; uint32_t e; } Mixed;"
    "typedef struct { uint16_t b; int64_t c; uint32_t e; } Kept;";

TEST(FusedAssembly, UnalignedProjectionWithGapsMatchesExact) {
  const auto design = design_for(kMixedSpec, "M");
  const auto data = random_payload(20 * 301, 3);
  const ChunkImage exact = expect_modes_agree(design, data, 0, "ge", 100);
  EXPECT_GT(exact.stats.tuples_out, 0u);
  EXPECT_LT(exact.stats.tuples_out, exact.stats.tuples_in);
}

TEST(FusedAssembly, OutputStorageGapsStayZero) {
  // Hand-widened output layout: holes before, between and after the
  // fields, and a tuple width that is not a multiple of 8 bits, so
  // survivors straddle output words at every phase.
  auto design = design_for(kMixedSpec, "M");
  auto& out = design.parser.output;
  std::uint32_t offset = 3;
  for (auto& f : out.fields) {
    f.storage_offset_bits = offset;
    offset += f.storage_width_bits + 5;
  }
  out.storage_bits = offset + 2;
  const auto data = random_payload(20 * 97, 8);
  const ChunkImage exact = expect_modes_agree(design, data, 4, "lt", 128);
  EXPECT_GT(exact.stats.tuples_out, 0u);
}

TEST(FusedAssembly, ReorderingProjectionMatchesExact) {
  const std::string spec =
      "/* @autogen define parser R with chunksize = 32, input = Point3D, "
      "output = Point2D, mapping = { output.x = input.z, "
      "output.y = input.x } */"
      "typedef struct { uint32_t x, y, z; } Point3D;"
      "typedef struct { uint32_t x, y; } Point2D;";
  const auto design = design_for(spec, "R");
  const auto points = make_points(200);
  const ChunkImage exact = expect_modes_agree(design, points, 0, "lt", 150);
  ASSERT_EQ(exact.stats.tuples_out, 150u);
  // Output tuple i is (z, x) of input tuple i.
  EXPECT_EQ(support::get_u32(exact.out, 0), 1000u);
  EXPECT_EQ(support::get_u32(exact.out, 4), 0u);
  EXPECT_EQ(support::get_u32(exact.out, 149 * 8), 1149u);
  EXPECT_EQ(support::get_u32(exact.out, 149 * 8 + 4), 149u);
}

TEST(FusedAssembly, OpaqueFieldWiderThan64BitsMatchesExact) {
  // The pub-graph paper record carries a 96-byte opaque title postfix;
  // an identity parser copies it whole.
  const std::string spec =
      "/* @autogen define parser Copy with chunksize = 32, input = Paper, "
      "output = Paper */"
      "typedef struct { uint64_t id; uint32_t year; uint32_t venue_id; "
      "uint32_t n_refs; uint32_t n_cited; /* @string prefix = 8 */ "
      "char title[104]; } Paper;";
  const auto design = design_for(spec, "Copy");
  const auto data = random_payload(128 * 250, 21);
  const ChunkImage exact = expect_modes_agree(design, data, 1, "lt", 1u << 31);
  EXPECT_GT(exact.stats.tuples_out, 0u);
  EXPECT_LT(exact.stats.tuples_out, exact.stats.tuples_in);
}

TEST(FusedAssembly, ZeroAndAllSurvivorsMatchExact) {
  const auto design = design_for(kMixedSpec, "M");
  const auto data = random_payload(20 * 128, 5);
  const ChunkImage none = expect_modes_agree(design, data, 0, "lt", 0);
  EXPECT_EQ(none.stats.tuples_out, 0u);
  const ChunkImage all = expect_modes_agree(design, data, 0, "nop", 0);
  EXPECT_EQ(all.stats.tuples_out, 128u);
}

TEST(FusedAssembly, StaticBaselineZeroPadMatchesExact) {
  const auto design =
      design_for(kMixedSpec, "M", hw::DesignFlavor::kHandcraftedBaseline);
  const auto data = random_payload(20 * 150, 13);
  const ChunkImage exact = expect_modes_agree(design, data, 0, "ge", 64);
  EXPECT_EQ(exact.stats.bytes_written, 32768u);
}

TEST(FusedAssembly, MalformedTransformFallsBackToExactRaise) {
  // A wire whose destination leaves the output tuple: the per-tuple
  // transform raises on the first survivor, and the fused engine must
  // leave the chunk to the exact path so the raise is identical.
  auto design = design_for(kPointSpec, "P");
  auto& field = design.parser.output.fields[1];
  field.padded_offset_bits = design.parser.output.padded_bits;
  const auto points = make_points(32);
  auto raise = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 3 /* ge */, 8);
    bench.start_chunk(0, 8192, static_cast<std::uint32_t>(points.size()));
    if (mode == SimMode::kFast) {
      EXPECT_FALSE(
          FastChunkEngine::run(bench.kernel(), bench.pe(), 1'000'000));
    }
    std::string message;
    try {
      bench.pe().run_to_completion();
    } catch (const Error& e) {
      message = e.what();
    }
    EXPECT_FALSE(message.empty());
    return std::pair{bench.kernel().now(), message};
  };
  EXPECT_EQ(raise(SimMode::kExact), raise(SimMode::kFast));
}

// ---- Replay memo: memoised timing outcomes vs exact ticking ----------

/// Two PEs on one interconnect. `a` runs most chunks alone (through the
/// fused engine in fast mode); now and then `a` and `b` run together
/// under run_until, where both read ports contend from the first grant,
/// so the round-robin cursor a fused run leaves behind shows in the
/// shared timing.
struct MemoRig {
  MemoRig(const hw::PEDesign& design, SimMode mode,
          AxiInterconnect::Config axi, std::uint64_t watchdog)
      : memory(1 << 20), interconnect(memory, axi) {
    kernel.set_mode(mode);
    kernel.set_observability(&obs);
    kernel.set_watchdog(watchdog);
    kernel.add_module(&interconnect);
    hw::PEDesign other = design;
    other.name += "_b";
    a = std::make_unique<SimulatedPE>(design, kernel, interconnect);
    b = std::make_unique<SimulatedPE>(other, kernel, interconnect);
  }

  SimMemory memory;
  obs::Observability obs;
  SimKernel kernel;
  AxiInterconnect interconnect;
  std::unique_ptr<SimulatedPE> a;
  std::unique_ptr<SimulatedPE> b;
};

constexpr std::uint64_t kMemoOutA = 512 << 10;
constexpr std::uint64_t kMemoOutB = 768 << 10;
constexpr std::uint64_t kMemoPayloadStride = 64 << 10;

/// One chunk's programming: payload slot, stage-0 predicate, IN_SIZE and
/// the aggregate op (ignored by designs without the register).
struct MemoChunk {
  std::uint32_t payload = 0;
  std::uint32_t field = 0;
  std::string op = "nop";
  std::uint64_t value = 0;
  std::uint32_t in_size = 0;
  hw::AggOp agg = hw::AggOp::kNone;
};

void program_chunk(SimulatedPE& pe, const MemoChunk& chunk,
                   std::uint64_t dst) {
  const auto& design = pe.design();
  const auto& map = pe.regmap();
  auto write64 = [&](std::string_view lo, std::string_view hi,
                     std::uint64_t value) {
    pe.mmio_write(map.offset_of(lo), static_cast<std::uint32_t>(value));
    pe.mmio_write(map.offset_of(hi), static_cast<std::uint32_t>(value >> 32));
  };
  const std::uint32_t nop = design.operators.find("nop")->encoding;
  for (std::uint32_t s = 0; s < design.filter_stage_count(); ++s) {
    const bool first = s == 0;
    pe.mmio_write(map.offset_of(hw::reg::filter_field(s)),
                  first ? chunk.field : 0);
    pe.mmio_write(map.offset_of(hw::reg::filter_op(s)),
                  first ? design.operators.find(chunk.op)->encoding : nop);
    write64(hw::reg::filter_value_lo(s), hw::reg::filter_value_hi(s),
            first ? chunk.value : 0);
  }
  if (map.find(hw::reg::kAggOp) != nullptr) {
    pe.mmio_write(map.offset_of(hw::reg::kAggOp),
                  static_cast<std::uint32_t>(chunk.agg));
    pe.mmio_write(map.offset_of(hw::reg::kAggField), 0);
  }
  write64(hw::reg::kInAddrLo, hw::reg::kInAddrHi,
          chunk.payload * kMemoPayloadStride);
  write64(hw::reg::kOutAddrLo, hw::reg::kOutAddrHi, dst);
  if (map.find(hw::reg::kInSize) != nullptr) {
    pe.mmio_write(map.offset_of(hw::reg::kInSize), chunk.in_size);
  }
  pe.mmio_write(map.offset_of(hw::reg::kStart), 1);
}

/// Runs `chunk` on `a` alone. Fast mode calls the fused engine directly
/// and requires it to apply, so every run either replays or hits the memo.
void run_alone(MemoRig& rig, const MemoChunk& chunk) {
  program_chunk(*rig.a, chunk, kMemoOutA);
  if (rig.kernel.mode() == SimMode::kFast) {
    EXPECT_TRUE(FastChunkEngine::run(rig.kernel, *rig.a, 1'000'000));
  } else {
    rig.a->run_to_completion();
  }
}

void run_together(MemoRig& rig, const MemoChunk& ca, const MemoChunk& cb) {
  program_chunk(*rig.a, ca, kMemoOutA);
  program_chunk(*rig.b, cb, kMemoOutB);
  rig.kernel.run_until([&] { return !rig.a->busy() && !rig.b->busy(); });
}

/// Checks that the two rigs left identical state behind: output DRAM,
/// per-PE stats, metrics, clock, cycle classes, every stream's transfers
/// and high-water mark, and the interconnect counters.
void expect_rigs_agree(MemoRig& exact, MemoRig& fast) {
  expect_chunk_eq(exact.a->last_stats(), fast.a->last_stats());
  expect_chunk_eq(exact.b->last_stats(), fast.b->last_stats());
  EXPECT_EQ(to_vec(exact.memory.read_bytes(kMemoOutA, 256 << 10)),
            to_vec(fast.memory.read_bytes(kMemoOutA, 256 << 10)));
  EXPECT_EQ(exact.obs.metrics.dump_json(), fast.obs.metrics.dump_json());
  EXPECT_EQ(exact.kernel.now(), fast.kernel.now());
  EXPECT_EQ(exact.kernel.cycle_stats().useful,
            fast.kernel.cycle_stats().useful);
  EXPECT_EQ(exact.kernel.cycle_stats().stalled,
            fast.kernel.cycle_stats().stalled);
  EXPECT_EQ(exact.kernel.cycle_stats().idle, fast.kernel.cycle_stats().idle);
  const auto& se = exact.kernel.streams();
  const auto& sf = fast.kernel.streams();
  ASSERT_EQ(se.size(), sf.size());
  for (std::size_t i = 0; i < se.size(); ++i) {
    EXPECT_EQ(se[i]->transfers(), sf[i]->transfers()) << se[i]->name();
    EXPECT_EQ(se[i]->high_water(), sf[i]->high_water()) << se[i]->name();
  }
  EXPECT_EQ(exact.interconnect.total_beats(), fast.interconnect.total_beats());
  EXPECT_EQ(exact.interconnect.contended_cycles(),
            fast.interconnect.contended_cycles());
}

/// Chunk menu of one memo scenario: the seeded sequence draws from it.
struct MemoScenario {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<MemoChunk> filters;  ///< Predicate and aggregate op only.
  std::vector<std::uint32_t> in_sizes;
  AxiInterconnect::Config axi{};
  std::uint64_t watchdog = 0;
  int steps = 200;
};

/// Runs a seeded sequence of chunks drawn from `scenario` on an exact and
/// a fast rig, comparing them after every step; returns the fast rig's
/// memo hits. Sequences mix chunks on `a` alone, zero-size chunks (which
/// make no grant, so the cursor passes through them) and runs of `a` and
/// `b` together.
std::uint64_t run_memo_sequence(const hw::PEDesign& design,
                                const MemoScenario& scenario,
                                std::uint64_t seed) {
  MemoRig exact(design, SimMode::kExact, scenario.axi, scenario.watchdog);
  MemoRig fast(design, SimMode::kFast, scenario.axi, scenario.watchdog);
  for (std::size_t p = 0; p < scenario.payloads.size(); ++p) {
    exact.memory.write_bytes(p * kMemoPayloadStride, scenario.payloads[p]);
    fast.memory.write_bytes(p * kMemoPayloadStride, scenario.payloads[p]);
  }
  auto draw = [&](std::uint64_t bound) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((seed >> 33) % bound);
  };
  auto draw_chunk = [&] {
    MemoChunk chunk = scenario.filters[draw(scenario.filters.size())];
    chunk.payload = draw(scenario.payloads.size());
    chunk.in_size = scenario.in_sizes[draw(scenario.in_sizes.size())];
    return chunk;
  };
  for (int step = 0; step < scenario.steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint32_t kind = draw(10);
    if (kind < 2) {
      const MemoChunk ca = draw_chunk();
      const MemoChunk cb = draw_chunk();
      run_together(exact, ca, cb);
      run_together(fast, ca, cb);
    } else {
      MemoChunk chunk = draw_chunk();
      if (kind == 2) chunk.in_size = 0;
      run_alone(exact, chunk);
      run_alone(fast, chunk);
    }
    expect_rigs_agree(exact, fast);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(exact.a->replay_memo().size(), 0u);  // Exact mode never memoises.
  return fast.a->replay_memo().hits();
}

std::vector<MemoChunk> point_filters() {
  return {{0, 0, "ge", 20}, {0, 1, "lt", 130}, {0, 0, "nop", 0},
          {0, 2, "eq", 1005}};
}

TEST(FastForward, MemoHitMatchesExactTicking) {
  const auto design = design_for(kPointSpec, "P");
  const auto points = make_points(64);
  const MemoChunk chunk{0, 0, "ge", 8, static_cast<std::uint32_t>(
                                           points.size())};
  MemoRig exact(design, SimMode::kExact, {}, 0);
  MemoRig fast(design, SimMode::kFast, {}, 0);
  exact.memory.write_bytes(0, points);
  fast.memory.write_bytes(0, points);
  // The first run starts from the interconnect's initial round-robin
  // cursor and the second from the one the first left behind, so both
  // replay and store an outcome; the third run's input equals the
  // second's, and it hits.
  const std::size_t sizes[3] = {1, 2, 2};
  const std::uint64_t hits[3] = {0, 0, 1};
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    run_alone(exact, chunk);
    run_alone(fast, chunk);
    expect_rigs_agree(exact, fast);
    EXPECT_EQ(fast.a->replay_memo().size(), sizes[run]);
    EXPECT_EQ(fast.a->replay_memo().hits(), hits[run]);
  }
  EXPECT_EQ(fast.a->last_stats().tuples_out, 56u);
}

TEST(FastForward, MemoSeededSequenceMatchesExact) {
  // One beat per cycle makes the read and write ports contend, and
  // IN_SIZE values 12k and 12k + 4 give the same tuples (and so the same
  // pass patterns) in a different number of words.
  const auto design = design_for(kPointSpec, "P");
  MemoScenario scenario;
  scenario.payloads = {make_points(300), random_payload(12 * 300, 7),
                       random_payload(12 * 300, 8)};
  scenario.filters = point_filters();
  scenario.in_sizes = {12 * 40, 12 * 40 + 4, 12 * 300, 12 * 299 + 8, 12};
  scenario.axi.beats_per_cycle = 1;
  EXPECT_GT(run_memo_sequence(design, scenario, 42), 50u);
}

TEST(FastForward, MemoWithArmedWatchdogMatchesExact) {
  const auto design = design_for(kMixedSpec, "M");
  MemoScenario scenario;
  scenario.payloads = {random_payload(20 * 200, 1),
                       random_payload(20 * 200, 2)};
  scenario.filters = {{0, 0, "lt", 128}, {0, 4, "ge", 1u << 31},
                      {0, 0, "nop", 0}};
  scenario.in_sizes = {20 * 200, 20 * 150 + 4, 20 * 3};
  scenario.watchdog = 64;  // Armed, but longer than any stall here.
  EXPECT_GT(run_memo_sequence(design, scenario, 7), 50u);
}

TEST(FastForward, MemoAggregateMatchesExact) {
  // The same pass patterns with and without a folding aggregate op: the
  // op decides whether survivors reach the transform at all.
  const std::string spec =
      "typedef struct { uint64_t id; int32_t temp; float reading; } Sensor;"
      "/* @autogen define parser S with input = Sensor, output = Sensor */";
  const auto design =
      design_for(spec, "S", hw::DesignFlavor::kGenerated, true);
  MemoScenario scenario;
  scenario.payloads = {random_payload(16 * 200, 3),
                       random_payload(16 * 200, 4)};
  for (const hw::AggOp agg :
       {hw::AggOp::kNone, hw::AggOp::kSum, hw::AggOp::kMax}) {
    scenario.filters.push_back({0, 1, "lt", 0, 0, agg});
    scenario.filters.push_back({0, 0, "nop", 0, 0, agg});
  }
  scenario.in_sizes = {16 * 200, 16 * 120, 16 * 120 + 8};
  EXPECT_GT(run_memo_sequence(design, scenario, 11), 50u);
}

TEST(FastForward, MemoStaticBaselineMatchesExact) {
  // No IN_SIZE register: every chunk reads its fixed payload and pads
  // the output to the full 32 KB block.
  auto design = design_for(kPointSpec, "P",
                           hw::DesignFlavor::kHandcraftedBaseline);
  design.static_payload_bytes = 12 * 50;
  MemoScenario scenario;
  scenario.payloads = {make_points(50), random_payload(12 * 50, 5)};
  scenario.filters = point_filters();
  scenario.in_sizes = {0};
  scenario.steps = 60;
  EXPECT_GT(run_memo_sequence(design, scenario, 3), 10u);
}

TEST(FastForward, MemoStaysUnderItsByteCap) {
  // Distinct pass patterns on every chunk: the memo fills, passes its
  // cap, clears and refills, and never holds more than the cap.
  const auto design = design_for(kPointSpec, "P");
  PETestBench bench(design, bench_config(SimMode::kFast));
  bench.set_filter(0, 0, design.operators.find("lt")->encoding, 1u << 31);
  const std::uint32_t bytes = 12 * 2600;
  std::size_t peak_entries = 0;
  bool cleared = false;
  for (std::uint64_t c = 0; c < 400; ++c) {
    bench.memory().write_bytes(0, random_payload(bytes, 100 + c));
    bench.start_chunk(0, kOutAddr, bytes);
    ASSERT_TRUE(FastChunkEngine::run(bench.kernel(), bench.pe(), 1'000'000));
    const ReplayMemo& memo = bench.pe().replay_memo();
    EXPECT_LE(memo.bytes(), ReplayMemo::kByteCap);
    if (memo.size() < peak_entries) cleared = true;
    peak_entries = std::max(peak_entries, memo.size());
  }
  EXPECT_TRUE(cleared);
  EXPECT_GT(peak_entries, 100u);
  EXPECT_EQ(bench.pe().replay_memo().hits(), 0u);
}

}  // namespace
}  // namespace ndpgen::hwsim
