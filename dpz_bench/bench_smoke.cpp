// Smoke test for dpz_bench: runs every workload named in BENCHMARK.json
// with --ops=3, plus one traced run, and checks each result line.
//
//   bench_smoke <dpz_bench binary> <BENCHMARK.json> <work dir>
//
// Each run must exit 0 and end with a JSON object that is correct, has no
// failed op (failed_op_ratio == 0) and carries every end_to_end metric
// (per_layer for the traced run) with the unit BENCHMARK.json gives it.
// The traced run must also report no replay-fidelity mismatch.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json_mini.h"

namespace {

using dpz::json::Value;

int g_failures = 0;

void fail(const std::string& what) {
  std::cerr << "FAIL: " << what << "\n";
  ++g_failures;
}

// Runs `command`, echoing its output, and returns its last non-empty line.
std::string last_line_of(const std::string& command) {
  std::cout << "$ " << command << "\n" << std::flush;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    fail("cannot run " + command);
    return {};
  }
  std::string output;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  if (pclose(pipe) != 0) fail("non-zero exit: " + command);
  std::cout << output;
  std::istringstream lines(output);
  std::string line;
  std::string last;
  while (std::getline(lines, line))
    if (!line.empty()) last = line;
  return last;
}

void check_result(const std::string& label, const std::string& line,
                  const Value& expected) {
  Value doc;
  try {
    doc = dpz::json::parse(line);
  } catch (const std::exception& e) {
    fail(label + ": last line is not JSON: " + e.what());
    return;
  }
  const Value* correct = doc.find("correct");
  const Value* attempted = doc.find("attempted");
  const Value* failed = doc.find("failed");
  const Value* metrics = doc.find("metrics");
  if (correct == nullptr || !correct->boolean) fail(label + ": not correct");
  if (attempted == nullptr || attempted->number < 1)
    fail(label + ": nothing attempted");
  if (failed == nullptr || failed->number != 0)
    fail(label + ": failed_op_ratio is not 0");
  if (metrics == nullptr || !metrics->is_object()) {
    fail(label + ": no metrics object");
    return;
  }
  for (const Value& m : expected.items) {
    const std::string& name = m.find("name")->text;
    const Value* got = metrics->find(name);
    if (got == nullptr || got->find("value") == nullptr ||
        !got->find("value")->is_number()) {
      fail(label + ": metric " + name + " missing");
      continue;
    }
    const Value* unit = got->find("unit");
    if (unit == nullptr || unit->text != m.find("unit")->text)
      fail(label + ": metric " + name + " has the wrong unit");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: bench_smoke <dpz_bench> <BENCHMARK.json> <dir>\n";
    return 2;
  }
  const std::string bench = argv[1];
  const std::string dir = argv[3];
  std::ifstream in(argv[2]);
  std::stringstream text;
  text << in.rdbuf();
  const Value spec = dpz::json::parse(text.str());

  for (const Value& w : spec.find("workloads")->items) {
    const std::string& name = w.find("name")->text;
    check_result(name,
                 last_line_of(bench + " --workload=" + name +
                              " --seed=7 --ops=3 --workdir=" + dir),
                 *spec.find("end_to_end"));
  }

  const std::string traced = "climate2d-archive";
  const std::string line =
      last_line_of(bench + " --workload=" + traced +
                   " --seed=7 --ops=3 --trace=" + dir + "/trace --workdir=" +
                   dir);
  check_result(traced + " traced", line, *spec.find("per_layer"));
  try {
    const Value* mismatches =
        dpz::json::parse(line).find("metrics")->find("replay.mismatches");
    if (mismatches == nullptr ||
        mismatches->find("value")->number != 0)
      fail(traced + " traced: replay fidelity mismatches");
  } catch (const std::exception& e) {
    fail(traced + " traced: " + e.what());
  }

  if (g_failures != 0) {
    std::cerr << g_failures << " smoke check(s) failed\n";
    return 1;
  }
  std::cout << "bench_smoke: OK\n";
  return 0;
}
