// perfbench_runner: runs one benchmark workload against the canopus::Pipeline
// facade and writes its raw measurements as JSON.
//
//   perfbench_runner --workload=<write_campaign|analyze_progressive|serve_shared>
//                    --seed=<n> --seconds=<s> --trace=<0|1>
//                    --out=<raw.json> [--chrome-out=<trace.json>]
//
// Normally invoked by perfbench/run.py, which builds it, computes the
// metrics from the raw file and prints the result line. Exit status: 0 when
// the run completed (correctness failures are in the raw file), 2 on bad
// arguments or an unexpected error.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string value;
    if (a.rfind("--", 0) != 0) return false;
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      value = a.substr(eq + 1);
      a = a.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (a == "--workload") {
      args.workload = value;
    } else if (a == "--seed") {
      args.seed = std::stoull(value);
    } else if (a == "--seconds") {
      args.seconds = std::stod(value);
    } else if (a == "--trace") {
      args.trace = value == "1";
    } else if (a == "--out") {
      args.out = value;
    } else if (a == "--chrome-out") {
      args.chrome_out = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && !args.out.empty() && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::cerr << "usage: perfbench_runner --workload=W --seed=N --seconds=S "
                   "--trace=0|1 --out=FILE [--chrome-out=FILE]\n";
      return 2;
    }
    perfbench::Report report;
    int rc = 0;
    if (args.workload == "write_campaign") {
      rc = perfbench::run_write_campaign(args, report);
    } else if (args.workload == "analyze_progressive") {
      rc = perfbench::run_analyze_progressive(args, report);
    } else if (args.workload == "serve_shared") {
      rc = perfbench::run_serve_shared(args, report);
    } else {
      std::cerr << "unknown workload '" << args.workload << "'\n";
      return 2;
    }
    report.set("peak_rss_mib", perfbench::peak_rss_mib());
    if (!report.write_json(args, args.out)) {
      std::cerr << "cannot write " << args.out << "\n";
      return 2;
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 2;
  }
}
