// Fig. 7(b): SCAN runtimes — software NDP vs hardware NDP, generated PEs
// (this work) vs hand-crafted PEs [1].
//
// The paper scans the full publication graph (papers + references) with a
// value predicate. We run a scaled dataset and report full-scale virtual
// time (linear scaling: the hardware scan is flash-bandwidth-bound at
// ~200 MB/s aggregate). Paper-reported anchors: hand-crafted HW 5.512 s,
// generated HW 5.530 s (+0.018 s); software NDP is substantially slower.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "hwgen/template_builder.hpp"
#include "hwsim/pe_sim.hpp"
#include "kv/block_format.hpp"
#include "support/crc32c.hpp"

using namespace ndpgen;

namespace {

struct ScanOutcome {
  double papers_s = 0;
  double refs_s = 0;
  [[nodiscard]] double total() const { return papers_s + refs_s; }
};

enum class Variant { kSoftware, kHwBaseline, kHwGenerated };

const char* name_of(Variant variant) {
  switch (variant) {
    case Variant::kSoftware: return "SW (software NDP)";
    case Variant::kHwBaseline: return "HW hand-crafted [1]";
    case Variant::kHwGenerated: return "HW generated (ours)";
  }
  return "?";
}

double run_scan(kv::NKV& db, const core::ParserArtifacts& artifacts,
                Variant variant, platform::CosmosPlatform& cosmos,
                const std::vector<ndp::FilterPredicate>& predicates,
                kv::KeyExtractor result_key, std::uint64_t scale,
                bench::FaultCounters& faults) {
  ndp::ExecutorConfig config;
  config.result_key_extractor = std::move(result_key);
  if (variant == Variant::kSoftware) {
    config.mode = ndp::ExecMode::kSoftware;
  } else {
    config.mode = ndp::ExecMode::kHardware;
    hwgen::TemplateOptions options;
    if (variant == Variant::kHwBaseline) {
      options.flavor = hwgen::DesignFlavor::kHandcraftedBaseline;
      options.static_payload_bytes =
          kv::records_per_block(artifacts.analyzed.input.storage_bytes()) *
          artifacts.analyzed.input.storage_bytes();
    }
    const auto design = hwgen::build_pe_design(artifacts.analyzed, options);
    cosmos.attach_pe(design);
    config.pe_indices = {cosmos.pe_count() - 1};
  }
  ndp::HybridExecutor executor(db, artifacts.analyzed,
                               artifacts.design.operators, config);
  const auto stats = executor.scan(predicates);
  faults.accumulate(stats);
  return bench::to_seconds(stats.elapsed) * static_cast<double>(scale);
}

}  // namespace

int main() {
  const std::uint64_t scale = bench::scale_divisor(256);
  bench::print_header(
      "Fig. 7(b) — SCAN execution times (full-scale seconds, virtual time)",
      "Weber et al., IPPS'21, Fig. 7(b)");
  std::printf("dataset: publication graph at 1/%llu scale "
              "(set NDPGEN_SCALE to change)\n\n",
              static_cast<unsigned long long>(scale));

  const core::Framework framework;
  const auto compiled = framework.compile(workload::pubgraph_spec_source());
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = scale});
  const fault::FaultProfile fault_profile = bench::fault_profile_from_env();
  if (fault_profile.any_enabled()) {
    std::fprintf(stderr, "%s\n", fault_profile.summary().c_str());
  }

  std::printf("%-22s %12s %12s %12s\n", "variant", "papers [s]", "refs [s]",
              "total [s]");
  bench::JsonResult json("fig7_scan");
  ScanOutcome outcomes[3];
  const Variant variants[] = {Variant::kSoftware, Variant::kHwBaseline,
                              Variant::kHwGenerated};
  for (int v = 0; v < 3; ++v) {
    // Fresh platform per variant so flash/DES state never leaks across.
    // The two stores share the device, so they must share the placement
    // policy (one physical page allocator per flash device).
    platform::CosmosConfig cosmos_config;
    cosmos_config.fault = fault_profile;
    platform::CosmosPlatform cosmos(cosmos_config);
    // Evaluation placement: stripe over every channel (group count 1) so
    // the scan sees the full ~200 MB/s aggregate (§III-B parallelism).
    auto placement = std::make_shared<kv::PlacementPolicy>(
        cosmos.flash().topology(), 1);
    auto papers_config = bench::paper_db_config();
    papers_config.shared_placement = placement;
    kv::NKV papers(cosmos, papers_config);
    workload::load_papers(papers, generator);
    auto refs_config = bench::ref_db_config();
    refs_config.shared_placement = placement;
    kv::NKV refs(cosmos, refs_config);
    workload::load_refs(refs, generator);

    bench::FaultCounters faults;
    outcomes[v].papers_s = run_scan(
        papers, compiled.get("PaperScan"), variants[v], cosmos,
        {{"year", "lt", 1990}}, workload::paper_result_key, scale, faults);
    outcomes[v].refs_s = run_scan(
        refs, compiled.get("RefScan"), variants[v], cosmos,
        {{"dst", "ge", generator.paper_count() / 4},
         {"dst", "lt", generator.paper_count() / 2}},
        workload::ref_key, scale, faults);
    std::printf("%-22s %12.3f %12.3f %12.3f\n", name_of(variants[v]),
                outcomes[v].papers_s, outcomes[v].refs_s,
                outcomes[v].total());
    json.add(name_of(variants[v]), "papers", outcomes[v].papers_s, "s");
    json.add(name_of(variants[v]), "refs", outcomes[v].refs_s, "s");
    json.add(name_of(variants[v]), "total", outcomes[v].total(), "s");
    if (fault_profile.any_enabled()) {
      std::printf("%-22s degraded media: %llu retried, %llu uncorrectable, "
                  "%llu degraded to SW\n", "",
                  static_cast<unsigned long long>(faults.blocks_retried),
                  static_cast<unsigned long long>(
                      faults.uncorrectable_blocks),
                  static_cast<unsigned long long>(
                      faults.blocks_degraded_to_software));
      bench::add_fault_rows(json, name_of(variants[v]), faults);
    }
  }

  // Fig. 10 dimension: replicate the generated PE over disjoint flash
  // channel shards (--pes). Flash scheduling stays shared (honest bus
  // serialization); the PE phase combines max-over-shards, so the sweep
  // shows channel-parallel scaling, not a free N-fold speedup.
  std::printf("\nmulti-PE sweep (HW generated, papers scan):\n");
  std::printf("%6s %12s %20s %10s\n", "PEs", "papers [s]", "PE phase [cyc]",
              "speedup");
  std::uint64_t serial_pe_cycles = 0;
  for (const std::uint32_t pes : {1u, 2u, 4u, 8u}) {
    platform::CosmosConfig cosmos_config;
    cosmos_config.fault = fault_profile;
    platform::CosmosPlatform cosmos(cosmos_config);
    auto placement = std::make_shared<kv::PlacementPolicy>(
        cosmos.flash().topology(), 1);
    auto papers_config = bench::paper_db_config();
    papers_config.shared_placement = placement;
    kv::NKV papers(cosmos, papers_config);
    workload::load_papers(papers, generator);

    const auto& artifacts = compiled.get("PaperScan");
    ndp::ExecutorConfig config;
    config.result_key_extractor = workload::paper_result_key;
    config.mode = ndp::ExecMode::kHardware;
    config.num_pes = pes;
    cosmos.attach_pe(hwgen::build_pe_design(artifacts.analyzed, {}));
    config.pe_indices = {cosmos.pe_count() - 1};
    ndp::HybridExecutor executor(papers, artifacts.analyzed,
                                 artifacts.design.operators, config);
    const auto stats = executor.scan({{"year", "lt", 1990}});
    if (pes == 1) serial_pe_cycles = stats.pe_phase_cycles;
    const double seconds =
        bench::to_seconds(stats.elapsed) * static_cast<double>(scale);
    const double speedup =
        stats.pe_phase_cycles == 0
            ? 0.0
            : static_cast<double>(serial_pe_cycles) /
                  static_cast<double>(stats.pe_phase_cycles);
    std::printf("%6u %12.3f %20llu %9.2fx\n", pes, seconds,
                static_cast<unsigned long long>(stats.pe_phase_cycles),
                speedup);
    const std::string series =
        "HW generated, " + std::to_string(pes) + " PEs";
    json.add(series, "papers", seconds, "s");
    json.add(series, "pe_phase_cycles",
             static_cast<double>(stats.pe_phase_cycles), "cycles");
    json.add(series, "pe_phase_speedup", speedup, "x");
    // Cycle attribution (ns rows are informational — the regression guard
    // only arms "s"/"ms"/"cycles"/"x" units, so these need no baseline).
    for (std::size_t p = 0; p < obs::kRequestPhaseCount; ++p) {
      const auto phase = static_cast<obs::RequestPhase>(p);
      json.add(series, "phase_" + std::string(obs::phase_name(phase)),
               static_cast<double>(stats.phases[phase]), "ns");
    }
    cosmos.publish_metrics();
    const auto& metrics = cosmos.observability().metrics;
    if (metrics.contains("hwsim.idle_cycle_fraction")) {
      json.add(series, "idle_cycle_fraction",
               static_cast<double>(
                   metrics.gauge_value("hwsim.idle_cycle_fraction")),
               "permille");
    }
  }
  // Simulator throughput: wall-clock PE-kernel cycles simulated per second
  // in exact vs fast mode, same generated PaperScan PE, same chunk
  // sequence. The virtual outcome is mode-independent (checked below);
  // only the wall clock moves. The rows use the "cyc/s" / "ratio" units
  // so the baseline guard never compares them across machines — the
  // dedicated --sim-throughput-threshold guard in check_bench_regression
  // holds the fast/exact ratio within one run instead.
  //
  // Every chunk (warm-up included) has its own random payload and the
  // filter keeps about half of the tuples, so the fast mode times real
  // timing replays and survivor assembly, never a memoised repeat.
  std::printf("\nsim throughput (HW generated, papers chunks, wall clock):\n");
  {
    const auto& artifacts = compiled.get("PaperScan");
    const auto design = hwgen::build_pe_design(artifacts.analyzed, {});
    const std::uint32_t record_bytes =
        static_cast<std::uint32_t>(artifacts.analyzed.input.storage_bytes());
    const std::uint32_t payload_bytes = (32'000 / record_bytes) * record_bytes;
    constexpr int kChunks = 64;
    constexpr int kReps = 3;
    constexpr int kTotalChunks = 1 + kReps * kChunks;  // With the warm-up.
    constexpr std::uint64_t kOutAddr = 7u << 20;
    std::vector<std::uint8_t> payloads(std::size_t{kTotalChunks} *
                                       payload_bytes);
    std::uint64_t lcg = 0x243F6A8885A308D3ull;  // deterministic content
    for (auto& byte : payloads) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      byte = static_cast<std::uint8_t>(lcg >> 56);
    }
    double cycles_per_s[2] = {0, 0};
    std::uint64_t virtual_cycles[2] = {0, 0};
    std::uint64_t matched[2] = {0, 0};
    std::uint64_t tuples_in = 0;
    std::uint64_t fast_memo_hits = 0;
    const hwsim::SimMode modes[2] = {hwsim::SimMode::kExact,
                                     hwsim::SimMode::kFast};
    for (int m = 0; m < 2; ++m) {
      hwsim::PETestBench pe_bench(
          design, hwsim::PEBenchConfig{.sim_mode = modes[m]});
      pe_bench.memory().write_bytes(0, payloads);
      // Field 1 is the year; on random bytes `lt 2^31` keeps ~half.
      const hwgen::CompareOp* lt = artifacts.design.operators.find("lt");
      for (std::uint32_t s = 0; s < design.filter_stage_count(); ++s) {
        pe_bench.set_filter(s, 1, lt->encoding, 1u << 31);
      }
      // One untimed warm-up chunk per mode (first-touch page faults and
      // lazy allocations would otherwise dominate the fast path, whose
      // whole timed window is a few milliseconds), then best-of-kReps
      // timing: the best rep rejects scheduler noise on shared runners.
      (void)pe_bench.run_chunk(0, kOutAddr, payload_bytes);
      std::uint64_t chunk_addr = payload_bytes;
      for (int rep = 0; rep < kReps; ++rep) {
        const std::uint64_t rep_start_cycles = pe_bench.kernel().now();
        const auto wall_start = std::chrono::steady_clock::now();
        for (int c = 0; c < kChunks; ++c) {
          const hwsim::ChunkStats stats =
              pe_bench.run_chunk(chunk_addr, kOutAddr, payload_bytes);
          matched[m] += stats.tuples_out;
          if (m == 0) tuples_in += stats.tuples_in;
          chunk_addr += payload_bytes;
        }
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - wall_start;
        const std::uint64_t rep_cycles =
            pe_bench.kernel().now() - rep_start_cycles;
        virtual_cycles[m] += rep_cycles;
        cycles_per_s[m] = std::max(
            cycles_per_s[m], static_cast<double>(rep_cycles) / wall.count());
      }
      if (modes[m] == hwsim::SimMode::kFast) {
        fast_memo_hits = pe_bench.pe().replay_memo().hits();
      }
    }
    const double speedup = cycles_per_s[0] > 0
                               ? cycles_per_s[1] / cycles_per_s[0]
                               : 0.0;
    std::printf("%8s %16s %16s\n", "mode", "cycles", "cyc/s");
    std::printf("%8s %16llu %16.0f\n", "exact",
                static_cast<unsigned long long>(virtual_cycles[0]),
                cycles_per_s[0]);
    std::printf("%8s %16llu %16.0f\n", "fast",
                static_cast<unsigned long long>(virtual_cycles[1]),
                cycles_per_s[1]);
    std::printf("  fast-forward speedup: %.1fx\n", speedup);
    std::printf("  %llu of %llu timed tuples survive the filter\n",
                static_cast<unsigned long long>(matched[1]),
                static_cast<unsigned long long>(tuples_in));
    std::printf("  [%c] fast mode replayed every chunk (%llu memo hits)\n",
                fast_memo_hits == 0 ? 'x' : ' ',
                static_cast<unsigned long long>(fast_memo_hits));
    std::printf("  [%c] virtual results identical across modes "
                "(%llu cycles, %llu matches)\n",
                (virtual_cycles[0] == virtual_cycles[1] &&
                 matched[0] == matched[1])
                    ? 'x'
                    : ' ',
                static_cast<unsigned long long>(virtual_cycles[1]),
                static_cast<unsigned long long>(matched[1]));
    json.add("sim_throughput", "exact", cycles_per_s[0], "cyc/s");
    json.add("sim_throughput", "fast", cycles_per_s[1], "cyc/s");
    json.add("sim_throughput", "speedup", speedup, "ratio");
  }
  // CRC32C throughput: wall-clock MB/s of the dispatched kernel (what
  // every block read, build and scrub uses) and of the table kernel (the
  // oracle) over 32 KB blocks. Like sim_throughput, the "MB/s" unit keeps
  // these rows out of the baseline comparison; the --sim-throughput-
  // threshold guard holds the fast/exact ratio within one run, which
  // collapses to ~1x if the fast kernel silently falls back to the table.
  std::printf("\ncrc32c throughput (32 KB blocks, wall clock):\n");
  {
    constexpr std::size_t kBlock = 32 * 1024;
    constexpr std::size_t kBlocks = 64;
    std::vector<std::uint8_t> data(kBlock * kBlocks);
    std::uint64_t lcg = 0x13198A2E03707344ull;
    for (auto& byte : data) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      byte = static_cast<std::uint8_t>(lcg >> 56);
    }
    // Best of three timed windows of >= 20 ms each (whole passes over
    // the 2 MB buffer), so the fast kernel's sub-millisecond pass is not
    // at the mercy of timer resolution.
    std::uint32_t sink = 0;
    auto mb_per_s = [&](auto kernel) {
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t bytes = 0;
        const auto start = std::chrono::steady_clock::now();
        std::chrono::duration<double> elapsed{};
        do {
          for (std::size_t b = 0; b < kBlocks; ++b) {
            sink ^= kernel(std::span<const std::uint8_t>(
                data.data() + b * kBlock, kBlock));
          }
          bytes += data.size();
          elapsed = std::chrono::steady_clock::now() - start;
        } while (elapsed.count() < 0.02);
        best = std::max(best, static_cast<double>(bytes) / 1e6 /
                                  elapsed.count());
      }
      return best;
    };
    const double table = mb_per_s([](std::span<const std::uint8_t> block) {
      return support::crc32c_update_table(0, block);
    });
    const double fast = mb_per_s([](std::span<const std::uint8_t> block) {
      return support::crc32c(block);
    });
    std::printf("%8s %12s\n", "kernel", "MB/s");
    std::printf("%8s %12.0f\n", "table", table);
    std::printf("%8s %12.0f  (%s)\n", "fast", fast,
                support::crc32c_sse42_supported() ? "sse4.2" : "slicing-by-8");
    std::printf("  speedup: %.1fx (checksum sink %08x)\n",
                table > 0 ? fast / table : 0.0, sink);
    json.add("crc32c_throughput", "exact", table, "MB/s");
    json.add("crc32c_throughput", "fast", fast, "MB/s");
  }
  json.write();

  std::printf("\npaper-reported anchors (their testbed, absolute):\n");
  std::printf("  HW hand-crafted [1]: 5.512 s   HW generated: 5.530 s "
              "(+0.018 s)\n");
  std::printf("shape checks:\n");
  const double hw_gap =
      outcomes[2].total() - outcomes[1].total();
  std::printf("  [%c] HW scan faster than SW scan (%.3f s vs %.3f s)\n",
              outcomes[2].total() < outcomes[0].total() ? 'x' : ' ',
              outcomes[2].total(), outcomes[0].total());
  std::printf("  [%c] generated ~= hand-crafted (gap %.3f s, %.1f%%; ours "
              "is marginally faster — the configurable Store Unit skips "
              "the static write-back padding)\n",
              std::abs(hw_gap) < 0.03 * outcomes[1].total() ? 'x' : ' ',
              hw_gap, 100.0 * hw_gap / outcomes[1].total());
  return 0;
}
