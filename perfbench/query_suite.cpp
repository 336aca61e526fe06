// query_suite: the five plans of the query compiler's suite, each executed
// through the compiled device pipeline and checked against the reference
// executor (the plan self-check). It is the only workload that runs the
// tail operators and the oracle, and the only one whose per-leaf store
// builds fall inside wall_s. The seed shifts the literals of each plan's
// first filter a little, so seeds change the inputs without changing
// which operators run.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "core/framework.hpp"
#include "query/compiler.hpp"
#include "query/executor.hpp"
#include "query/plan_parser.hpp"
#include "query/plan_suite.hpp"
#include "query/reference_executor.hpp"
#include "probes.hpp"
#include "support/rng.hpp"

namespace ndpbench {
namespace {

using namespace ndpgen;

/// Shifts the numeric literals of the plan's first `filter` statement:
/// years by -2..+2, other values by -5%..+5% (never below 1).
std::string jitter_plan(const std::string& source, std::uint64_t seed) {
  support::SplitMix64 rng(seed ^ 0x71756572'79737569ULL);
  const std::uint64_t h = rng.next();
  const std::int64_t year_shift = static_cast<std::int64_t>(h % 5) - 2;
  const std::int64_t percent = static_cast<std::int64_t>((h / 5) % 11) - 5;
  const std::size_t begin = source.find("filter ");
  if (begin == std::string::npos) return source;
  const std::size_t end = source.find(';', begin);
  std::istringstream tokens(source.substr(begin, end - begin));
  // Statement form: filter <column> <op> <uint> (, <column> <op> <uint>)*
  std::string out;
  std::string token;
  std::size_t position = 0;  // Within one "<column> <op> <uint>" triple.
  std::string column;
  while (tokens >> token) {
    const bool comma = token.back() == ',';
    if (comma) token.pop_back();
    if (token != "filter") {
      if (position == 0) column = token;
      if (position == 2) {
        const std::int64_t value = std::stoll(token);
        token = std::to_string(
            column == "year"
                ? value + year_shift
                : std::max<std::int64_t>(1, value * (100 + percent) / 100));
      }
      position = (position + 1) % 3;
    }
    out += (out.empty() ? "" : " ") + token + (comma ? "," : "");
  }
  return source.substr(0, begin) + out + source.substr(end);
}

struct PlanRun {
  std::string name;
  std::string source;
  query::Plan plan;
  std::unique_ptr<query::CompiledPlan> compiled;
  query::QueryStats stats;
  bool equal = false;
  std::uint64_t rows = 0;
};

class QuerySuite final : public Workload {
 public:
  explicit QuerySuite(const Options& options)
      : scale_(options.tiny ? 8192 : 1024) {
    for (const query::NamedPlan& named : query::plan_suite()) {
      PlanRun run;
      run.name = named.name;
      run.source = jitter_plan(named.source, options.seed);
      plans_.push_back(std::move(run));
    }
  }

  /// Compiling the suite takes about 0.2 ms: 300 compiles make a setup_s
  /// sample of ~50 ms, long enough that the few cold compiles after a
  /// rep's ops and the timer do not decide it.
  [[nodiscard]] int setup_repeats() const override { return 300; }

  void reset() override {
    for (PlanRun& run : plans_) run.compiled.reset();
  }

  void setup(SpanRecorder& spans) override {
    for (PlanRun& run : plans_) {
      SpanRecorder::Scope span(spans, "query.compile");
      auto parsed = query::parse_plan(run.source);
      if (!parsed.ok()) raise_status("parse", run, parsed.status());
      run.plan = std::move(parsed).value();
      auto compiled = query::compile_plan(run.plan);
      if (!compiled.ok()) raise_status("compile", run, compiled.status());
      run.compiled = std::make_unique<query::CompiledPlan>(
          std::move(compiled).value());
    }
  }

  void run(SpanRecorder& spans) override {
    query::QueryExecOptions exec;
    exec.scale_divisor = scale_;
    exec.pes = kScanPes;
    exec.threads = kPeThreads;
    for (PlanRun& run : plans_) {
      spans.set_op(++next_op_);
      query::ResultTable table;
      {
        SpanRecorder::Scope span(spans, "query.execute");
        run.stats = query::QueryStats{};
        table = query::execute_plan(*run.compiled, exec, &run.stats);
      }
      query::ResultTable reference;
      {
        SpanRecorder::Scope span(spans, "query.reference");
        reference = query::reference_execute(run.plan, scale_);
      }
      run.equal = table.to_bytes() == reference.to_bytes();
      run.rows = table.rows.size();
    }
  }

  void verify(RepOutcome& out) override {
    double elapsed_ns = 0;
    double leaf_bytes = 0;
    double leaf_ns = 0;
    for (const PlanRun& run : plans_) {
      ++out.attempted;
      if (!run.equal) {
        out.fail("query_suite plan " + run.name +
                 ": compiled execution diverges from the reference executor");
      }
      const double elapsed = static_cast<double>(run.stats.elapsed());
      elapsed_ns += elapsed;
      for (const query::LeafRunStats& leaf : run.stats.leaves) {
        leaf_bytes += static_cast<double>(leaf.blocks) * kv::kDataBlockBytes;
        leaf_ns += static_cast<double>(leaf.elapsed);
      }
    }
    out.virt["virt_ms"] = elapsed_ns / 1e6;
    out.virt["virt_query_ms"] = elapsed_ns / 1e6;
    out.virt["virt_flash_mb_per_s"] = leaf_bytes / 1e6 / (leaf_ns / 1e9);
  }

  void layer_metrics(const SpanRecorder& spans, std::size_t first_span,
                     RepOutcome& out) override {
    out.layer["query.compile_s"] = spans.total("query.compile", first_span);
    out.layer["query.execute_s"] = spans.total("query.execute", first_span);
    out.layer["query.reference_s"] =
        spans.total("query.reference", first_span);
    double rows = 0;
    for (const PlanRun& run : plans_) rows += static_cast<double>(run.rows);
    out.layer["query.rows_out"] = rows;
  }

  void probe(SpanRecorder& spans, RepOutcome& out) override {
    // The leaves build their stores inside execute_plan; rebuild the
    // papers leaf (the suite's default-seed dataset) once, from outside,
    // to time the lower layers on the blocks the plans read.
    const workload::PubGraphGenerator generator({.scale_divisor = scale_});
    core::Framework framework;
    platform::CosmosPlatform cosmos;
    double t0 = now_s();
    const core::CompileResult compiled =
        framework.compile(workload::pubgraph_spec_source());
    const std::size_t pe = framework.instantiate(compiled, "PaperScan", cosmos);
    out.layer["core.compile_s"] = now_s() - t0;
    kv::NKV db(cosmos, paper_db_config());
    {
      SpanRecorder::Scope span(spans, "kv.load");
      t0 = now_s();
      workload::load_papers(db, generator);
      out.layer["kv.load_s"] = now_s() - t0;
    }
    out.layer["workload.gen_s"] = probe_generate_papers(generator);
    const auto& artifacts = compiled.get("PaperScan");
    probe_blocks({&db, &artifacts.analyzed, &artifacts.design.operators, pe,
                  {{"year", "ge", 2015}}},
                 spans, out);
  }

  [[nodiscard]] std::vector<std::string> unused_layer_metrics()
      const override {
    return join({scan_metrics(), write_metrics(), get_metrics(),
                 serve_metrics(), phase_metrics()});
  }

 private:
  [[noreturn]] static void raise_status(const char* stage, const PlanRun& run,
                                        const Status& status) {
    ndpgen::raise(status.kind, std::string(stage) + " of plan " + run.name +
                                   " failed: " + status.message);
  }

  std::uint64_t scale_;
  std::vector<PlanRun> plans_;
  std::uint64_t next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_query_suite(const Options& options) {
  return std::make_unique<QuerySuite>(options);
}

}  // namespace ndpbench
