// Figure 10: GenASiS retrieval pipeline (I/O, decompression, restoration —
// no analysis stage), plus full-accuracy restoration times (10b).

#include <iostream>

#include "bench_common.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench::CaseOptions opt;
  opt.detect_blobs = false;
  opt.error_bound = cli.get_double("eb", 1e-4);
  opt.threads = bench::threads_flag(cli);
  bench::session_flags(cli, opt);
  bench::io_flags(cli, opt);
  bench::observability_flags(cli);

  sim::GenasisOptions gopt;  // paper-sized: ~130k triangles
  const auto ds = sim::make_genasis_dataset(gopt);
  std::cout << "workload: genasis normVec magnitude, " << ds.values.size()
            << " values (" << ds.values.size() * sizeof(double) / 1024
            << " KiB raw)\n\n";

  std::vector<bench::PipelineCase> full;
  const auto cases = bench::run_pipeline(ds, opt, &full);
  bench::print_pipeline_table("Fig. 10a time usage of Canopus phases", cases,
                              false, std::cout);
  std::cout << '\n';
  bench::print_pipeline_table(
      "Fig. 10b restoring full accuracy from base + deltas", full, false,
      std::cout);
  std::cout << '\n';
  bench::print_trace_summary(std::cout);
  return 0;
}
