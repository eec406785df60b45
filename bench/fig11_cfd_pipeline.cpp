// Figure 11: CFD retrieval pipeline (ratios None, 2, 4, 8 as in the paper),
// plus full-accuracy restoration times (11b).

#include <iostream>

#include "bench_common.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench::CaseOptions opt;
  opt.detect_blobs = false;
  opt.ratios = {2, 4, 8};  // the CFD mesh is small; the paper stops at 8x
  opt.error_bound = cli.get_double("eb", 1e-4);
  opt.threads = bench::threads_flag(cli);
  bench::session_flags(cli, opt);
  bench::io_flags(cli, opt);
  bench::observability_flags(cli);

  const auto ds = sim::make_cfd_dataset({});
  std::cout << "workload: cfd jet pressure, " << ds.values.size()
            << " values (" << ds.values.size() * sizeof(double) / 1024
            << " KiB raw)\n\n";

  std::vector<bench::PipelineCase> full;
  const auto cases = bench::run_pipeline(ds, opt, &full);
  bench::print_pipeline_table("Fig. 11a time usage of Canopus phases", cases,
                              false, std::cout);
  std::cout << '\n';
  bench::print_pipeline_table(
      "Fig. 11b restoring full accuracy from base + deltas", full, false,
      std::cout);
  std::cout << '\n';
  bench::print_trace_summary(std::cout);
  return 0;
}
