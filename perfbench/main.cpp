// perfbench — runs one benchmark workload in this process and prints one
// JSON result line:
//   perfbench --workload eq1-kdd --seed 1 --seconds 10 --trace 0
// perfbench/run.py builds this binary and is the command to use; see
// README.md for the workloads, the metrics and how to read a traced run.
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>

#include "common/cli.h"
#include "common/json.h"
#include "workloads.h"

int main(int argc, char** argv) {
  try {
    fusedml::Cli cli(argc, argv);
    perfbench::Options opts;
    opts.workload = cli.get_string("workload", "eq1-kdd",
                                   "eq1-kdd | scripts-higgs | serve-mixed");
    opts.seed = static_cast<std::uint64_t>(
        cli.get_int("seed", 1, "input seed; the same seed, the same inputs"));
    opts.seconds = cli.get_double(
        "seconds", 10.0, "sizes the fixed amount of work of the run");
    opts.trace = cli.get_int("trace", 0, "1 = per-layer metrics + spans") != 0;
    opts.trace_path = cli.get_string("trace-out", "",
                                     "Chrome/Perfetto JSON of the spans");
    opts.perturb = static_cast<int>(cli.get_int(
        "perturb", 0, "self-test: corrupt the first N outputs"));
    if (cli.help_requested()) {
      std::cout << cli.usage();
      return 0;
    }
    cli.finish();
    if (opts.seconds <= 0.0 || opts.perturb < 0) {
      std::cerr << "perfbench: --seconds must be > 0 and --perturb >= 0\n";
      return 1;
    }

    const perfbench::Result r = perfbench::run_workload(opts);
    for (const std::string& e : r.errors) {
      std::cerr << "perfbench: " << opts.workload << ": " << e << "\n";
    }
    std::fprintf(stderr,
                 "perfbench: %s seed %" PRIu64 " input digest %016" PRIx64
                 "\n",
                 opts.workload.c_str(), opts.seed, r.input_digest);

    std::ostringstream line;
    fusedml::JsonWriter json(line);
    json.begin_object();
    json.member("correct", r.correct);
    json.member("attempted", r.attempted);
    json.member("failed", r.failed);
    json.key("metrics").begin_object();
    for (const perfbench::Metric& m : r.metrics) {
      json.key(m.name).begin_object();
      json.member("value", m.value);
      json.member("unit", m.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
    std::cout << line.str() << std::endl;
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
