#include "probes.hpp"

#include <algorithm>
#include <string>

#include "kv/block_format.hpp"
#include "kv/sst_reader.hpp"
#include "ndp/hardware_ndp.hpp"
#include "ndp/software_ndp.hpp"
#include "support/crc32c.hpp"

namespace ndpbench {

using namespace ndpgen;

kv::DBConfig paper_db_config() {
  kv::DBConfig config;
  config.record_bytes = workload::PaperRecord::kBytes;
  config.extractor = workload::paper_key;
  return config;
}

kv::DBConfig ref_db_config() {
  kv::DBConfig config;
  config.record_bytes = workload::RefRecord::kBytes;
  config.extractor = workload::ref_key;
  return config;
}

std::unique_ptr<ndp::HybridExecutor> make_hw_executor(
    kv::NKV& db, const core::ParserArtifacts& artifacts, std::size_t pe,
    kv::KeyExtractor result_key) {
  ndp::ExecutorConfig config;
  config.mode = ndp::ExecMode::kHardware;
  config.pe_indices = {pe};
  config.num_pes = kScanPes;
  config.pe_threads = kPeThreads;
  config.result_key_extractor = std::move(result_key);
  return std::make_unique<ndp::HybridExecutor>(
      db, artifacts.analyzed, artifacts.design.operators, config);
}

std::vector<std::string> scan_metrics() {
  return {"ndp.scan_s.broad", "ndp.scan_s.selective", "ndp.range_scan_s",
          "ndp.scan_self_s", "ndp.dedup_ratio"};
}

std::vector<std::string> write_metrics() {
  return {"kv.put_s", "kv.flush_s", "kv.compactions", "kv.records_purged",
          "kv.write_amp"};
}

std::vector<std::string> get_metrics() {
  return {"ndp.get_s", "ndp.get_blocks_fetched", "virt_get_us.p50",
          "virt_get_us.p99"};
}

std::vector<std::string> serve_metrics() {
  return {"host.run_s",          "host.self_s",         "host.coalesced_frac",
          "host.dropped",        "cluster.build_s",     "cluster.offload_s",
          "cluster.sub_scans",   "cluster.hedges",      "cluster.hedges_won",
          "virt_req_ms.p50.mid", "virt_req_ms.p99.lo",  "virt_req_ms.p99.mid",
          "virt_req_ms.p99.hi",  "virt_max_rps"};
}

std::vector<std::string> query_metrics() {
  return {"query.compile_s", "query.execute_s", "query.reference_s",
          "query.rows_out", "virt_query_ms"};
}

std::vector<std::string> phase_metrics() {
  std::vector<std::string> names;
  for (std::size_t p = 0; p < obs::kRequestPhaseCount; ++p) {
    const auto phase = static_cast<obs::RequestPhase>(p);
    names.push_back("virt.phase." + std::string(obs::phase_name(phase)) +
                    "_ms");
  }
  return names;
}

std::vector<std::string> join(
    std::initializer_list<std::vector<std::string>> groups) {
  std::vector<std::string> names;
  for (const auto& group : groups) {
    names.insert(names.end(), group.begin(), group.end());
  }
  return names;
}

void add_phase_metrics(const obs::PhaseBreakdown& phases, MetricMap& virt) {
  for (std::size_t p = 0; p < obs::kRequestPhaseCount; ++p) {
    const auto phase = static_cast<obs::RequestPhase>(p);
    virt["virt.phase." + std::string(obs::phase_name(phase)) + "_ms"] =
        static_cast<double>(phases[phase]) / 1e6;
  }
}

namespace {

/// Passes each probe makes over the blocks: the first warms the caches
/// the way a rep's earlier ops do, and the median pass is reported.
constexpr int kProbePasses = 5;

/// Host seconds of the median of kProbePasses calls of `pass`.
template <typename Pass>
double median_pass(Pass&& pass) {
  std::vector<double> seconds;
  for (int k = 0; k < kProbePasses; ++k) {
    const double t0 = now_s();
    pass();
    seconds.push_back(now_s() - t0);
  }
  return median(std::move(seconds));
}

}  // namespace

void probe_blocks(const BlockProbeTarget& target, SpanRecorder& spans,
                  RepOutcome& out) {
  MetricMap& layer = out.layer;
  kv::NKV& db = *target.db;
  platform::CosmosPlatform& platform = db.platform();
  struct Ref {
    const kv::SSTable* table;
    std::uint32_t index;
  };
  std::vector<Ref> refs;
  for (const auto& table : db.version().recency_ordered()) {
    for (std::uint32_t i = 0; i < table->blocks.size(); ++i) {
      refs.push_back(Ref{table.get(), i});
    }
  }
  layer["kv.blocks"] = static_cast<double>(refs.size());

  std::uint64_t hw_survivors = 0;  // The PE and the software path must agree.

  // kv: checked block assembly from flash pages (CRC verify included).
  std::vector<std::vector<std::uint8_t>> blocks(refs.size());
  {
    SpanRecorder::Scope span(spans, "kv.read_block_checked");
    std::uint64_t failed = 0;
    layer["kv.read_block_s"] = median_pass([&] {
      failed = 0;
      for (std::size_t b = 0; b < refs.size(); ++b) {
        kv::SSTReader reader(*refs[b].table, platform.flash(),
                             db.config().extractor);
        auto checked = reader.read_block_checked(refs[b].index);
        if (!checked.ok()) {
          ++failed;
          continue;
        }
        blocks[b] = std::move(checked).value();
      }
    });
    if (failed != 0) {
      out.fail("probe: " + std::to_string(failed) +
               " blocks failed their checked read");
    }
  }

  // support: the CRC kernel alone over the same bytes.
  {
    SpanRecorder::Scope span(spans, "support.crc32c");
    std::uint64_t bytes = 0;
    std::uint64_t mismatches = 0;
    const double seconds = median_pass([&] {
      bytes = 0;
      mismatches = 0;
      for (std::size_t b = 0; b < refs.size(); ++b) {
        const std::uint32_t crc = support::crc32c(blocks[b]);
        const std::uint32_t expected =
            refs[b].table->blocks[refs[b].index].crc32c;
        if (expected != 0 && crc != expected) ++mismatches;
        bytes += blocks[b].size();
      }
    });
    layer["support.crc32c_mb_per_s"] =
        seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
    if (mismatches != 0) {
      out.fail("probe: " + std::to_string(mismatches) +
                    " blocks fail their index CRC");
    }
  }

  // hwsim: the PE simulator on each block's payload.
  {
    ndp::HardwareNdp hw(platform, target.pe_index);
    const auto bound = ndp::bind_conjunction(
        target.parser->input, *target.operators, target.predicates,
        hw.design().filter_stage_count());
    SpanRecorder::Scope span(spans, "hwsim.process_block");
    std::uint64_t cycles = 0;
    layer["hwsim.process_block_s"] = median_pass([&] {
      cycles = 0;
      hw_survivors = 0;
      for (std::size_t b = 0; b < refs.size(); ++b) {
        if (blocks[b].empty()) continue;
        const kv::BlockTrailer trailer = kv::read_trailer(blocks[b]);
        const auto result = hw.process_block(
            std::span<const std::uint8_t>(blocks[b])
                .first(kv::block_payload_bytes(trailer)),
            bound, /*collect=*/true, /*reconfigure=*/b == 0);
        cycles += result.stats.cycles;
        hw_survivors += result.stats.tuples_out;
      }
    });
    layer["hwsim.pe_cycles"] = static_cast<double>(cycles);
  }

  // ndp: the software filter path on the same blocks.
  {
    const ndp::SoftwareNdp software(*target.parser, *target.operators,
                                    platform.timing());
    const auto bound = ndp::bind_conjunction(
        target.parser->input, *target.operators, target.predicates,
        std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(target.predicates.size())));
    SpanRecorder::Scope span(spans, "ndp.filter_block");
    std::uint64_t survivors = 0;
    layer["ndp.filter_block_s"] = median_pass([&] {
      survivors = 0;
      for (const auto& block : blocks) {
        if (block.empty()) continue;
        survivors += software.filter_block(block, bound, true).tuples_out;
      }
    });
    if (survivors != hw_survivors) {
      out.fail("probe: software filter kept " + std::to_string(survivors) +
               " tuples, the PE " + std::to_string(hw_survivors));
    }
  }

  // platform: the flash DES page fetch of every block into device DRAM.
  {
    const std::uint64_t staging =
        platform.dram().allocate(kv::kDataBlockBytes);
    SpanRecorder::Scope span(spans, "platform.fetch_pages");
    layer["platform.fetch_s"] = median_pass([&] {
      for (const Ref& ref : refs) {
        platform.fetch_pages_to_dram_sync(
            ref.table->blocks[ref.index].flash_pages, staging);
      }
    });
  }
}

double probe_generate_papers(const workload::PubGraphGenerator& generator) {
  std::uint64_t sink = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < generator.paper_count(); ++i) {
    sink += generator.paper(i).serialize()[8];
  }
  const double seconds = now_s() - t0;
  return sink == ~std::uint64_t{0} ? 0.0 : seconds;
}

double probe_generate_refs(const workload::PubGraphGenerator& generator) {
  std::uint64_t sink = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < generator.ref_count(); ++i) {
    sink += generator.ref(i).serialize()[0];
  }
  const double seconds = now_s() - t0;
  return sink == ~std::uint64_t{0} ? 0.0 : seconds;
}

}  // namespace ndpbench
