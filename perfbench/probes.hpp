// Shared pieces of the workloads: store configs, and the traced-run probes
// that replay a store's blocks through one inner layer at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/framework.hpp"
#include "hwgen/operators.hpp"
#include "kv/db.hpp"
#include "ndp/executor.hpp"
#include "ndp/predicate.hpp"
#include "obs/request_trace.hpp"
#include "workload/pubgraph.hpp"
#include "workloads.hpp"

namespace ndpbench {

[[nodiscard]] ndpgen::kv::DBConfig paper_db_config();
[[nodiscard]] ndpgen::kv::DBConfig ref_db_config();

/// A store and the parser/PE that scan it.
struct BlockProbeTarget {
  ndpgen::kv::NKV* db = nullptr;
  const ndpgen::analysis::AnalyzedParser* parser = nullptr;
  const ndpgen::hwgen::OperatorSet* operators = nullptr;
  std::size_t pe_index = 0;  ///< PE attached to db's platform for parser.
  std::vector<ndpgen::ndp::FilterPredicate> predicates;
};

/// Replays every block of the store, in recency order, through
///   kv.read_block_s      SSTReader::read_block_checked
///   support.crc32c_*     crc32c over the same bytes
///   hwsim.process_block_s HardwareNdp::process_block (+ hwsim.pe_cycles)
///   ndp.filter_block_s   SoftwareNdp::filter_block
///   platform.fetch_s     CosmosPlatform::fetch_pages_to_dram_sync
/// into out.layer (each the median of five passes over all the blocks) and
/// sets kv.blocks. A block whose CRC does not match its
/// index entry, or a PE that keeps other tuples than the software filter,
/// is a failure. Runs after the timed reps, so the virtual clock it
/// advances is never reported.
void probe_blocks(const BlockProbeTarget& target, SpanRecorder& spans,
                  RepOutcome& out);

/// Host seconds to generate (and serialize) every paper of `generator`.
[[nodiscard]] double probe_generate_papers(
    const ndpgen::workload::PubGraphGenerator& generator);
/// Host seconds to generate (and serialize) every ref of `generator`.
[[nodiscard]] double probe_generate_refs(
    const ndpgen::workload::PubGraphGenerator& generator);

/// PE shards of the scan workloads (the paper's multi-PE setting).
inline constexpr std::uint32_t kScanPes = 4;

/// HW-mode executor over `db` with the PE `pe` of `artifacts`, sharding
/// scans over kScanPes PE replicas on kPeThreads host threads.
[[nodiscard]] std::unique_ptr<ndpgen::ndp::HybridExecutor> make_hw_executor(
    ndpgen::kv::NKV& db, const ndpgen::core::ParserArtifacts& artifacts,
    std::size_t pe, ndpgen::kv::KeyExtractor result_key);

/// Sets virt.phase.<phase>_ms for every request phase.
void add_phase_metrics(const ndpgen::obs::PhaseBreakdown& phases,
                       MetricMap& virt);

}  // namespace ndpbench
