// Tests for Sweep expansion and SweepRunner: cross-product semantics,
// thread-count-independent determinism, and per-run failure capture.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "runner/sweep.h"

namespace gcs {
namespace {

ScenarioSpec small_line() {
  ScenarioSpec spec;
  spec.n = 4;
  spec.topology = ComponentSpec("line");
  spec.edge_params = default_edge_params();
  spec.gtilde_auto = true;
  return spec;
}

TEST(Sweep, ExpandsCrossProductLastAxisFastest) {
  Sweep sweep(small_line());
  sweep.axis("n", std::vector<int>{4, 8}).seeds({1, 2, 3});
  EXPECT_EQ(sweep.size(), 6u);
  const auto grid = sweep.expand();
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0].axes.at("n"), "4");
  EXPECT_EQ(grid[0].axes.at("seed"), "1");
  EXPECT_EQ(grid[1].axes.at("seed"), "2");
  EXPECT_EQ(grid[3].axes.at("n"), "8");
  EXPECT_EQ(grid[3].spec.n, 8);
  EXPECT_EQ(grid[3].spec.seed, 1u);
}

TEST(Sweep, NoAxesMeansSingleRun) {
  Sweep sweep(small_line());
  EXPECT_EQ(sweep.expand().size(), 1u);
}

TEST(Sweep, RejectsEmptyAndDuplicateAxes) {
  Sweep sweep(small_line());
  EXPECT_THROW(sweep.axis("n", std::vector<int>{}), std::runtime_error);
  sweep.axis("n", std::vector<int>{4});
  EXPECT_THROW(sweep.axis("n", std::vector<int>{8}), std::runtime_error);
}

std::vector<RunResult> run_grid(int threads) {
  SweepOptions options;
  options.threads = threads;
  options.horizon = 60.0;
  options.sample_period = 5.0;
  Sweep sweep(small_line());
  sweep.axis("n", std::vector<int>{4, 6, 8}).seeds({1, 2});
  return SweepRunner(options).run(sweep);
}

TEST(SweepRunner, DeterministicAcrossThreadCounts) {
  const auto serial = run_grid(1);
  const auto two = run_grid(2);
  const auto four = run_grid(4);
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(two.size(), serial.size());
  ASSERT_EQ(four.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    EXPECT_EQ(serial[i].axes, two[i].axes);
    EXPECT_EQ(serial[i].n, two[i].n);
    // Identical RunResult metrics bit-for-bit, independent of scheduling.
    for (const auto* r : {&two[i], &four[i]}) {
      EXPECT_DOUBLE_EQ(serial[i].final_global, r->final_global);
      EXPECT_DOUBLE_EQ(serial[i].max_global, r->max_global);
      EXPECT_DOUBLE_EQ(serial[i].final_local, r->final_local);
      EXPECT_DOUBLE_EQ(serial[i].max_local, r->max_local);
      EXPECT_EQ(serial[i].legal, r->legal);
      EXPECT_DOUBLE_EQ(serial[i].legality_margin, r->legality_margin);
      EXPECT_EQ(serial[i].events, r->events);
    }
  }
}

TEST(SweepRunner, HeterogeneousRunLengthsLandInGridOrder) {
  // A strongly skewed grid: the first runs are ~64x the work of the last,
  // so workers finish out of grid order. Results must still land in grid
  // order and match the serial execution bit-for-bit.
  auto base = small_line();
  Sweep sweep(base);
  sweep.axis("n", std::vector<int>{32, 32, 4, 4, 4, 4, 4, 4});
  SweepOptions options;
  options.horizon = 40.0;
  options.threads = 1;
  const auto serial = SweepRunner(options).run(sweep);
  options.threads = 4;
  const auto parallel = SweepRunner(options).run(sweep);
  ASSERT_EQ(serial.size(), 8u);
  ASSERT_EQ(parallel.size(), 8u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    EXPECT_EQ(serial[i].index, parallel[i].index);
    EXPECT_EQ(serial[i].n, parallel[i].n);
    EXPECT_DOUBLE_EQ(serial[i].final_global, parallel[i].final_global);
    EXPECT_DOUBLE_EQ(serial[i].max_local, parallel[i].max_local);
    EXPECT_EQ(serial[i].events, parallel[i].events);
  }
}

TEST(SweepRunner, MoreThreadsThanRunsIsSafeAndComplete) {
  Sweep sweep(small_line());
  sweep.axis("seed", std::vector<int>{1, 2, 3});
  SweepOptions options;
  options.horizon = 20.0;
  options.threads = 16;  // capped at the grid size internally
  const auto results = SweepRunner(options).run(sweep);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(results[i].index, static_cast<int>(i));
    EXPECT_GT(results[i].events, 0u);
  }
}

TEST(SweepRunner, DeterministicCsvIsByteIdenticalAcrossThreadCounts) {
  const auto read_all = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::string all, line;
    while (std::getline(in, line)) all += line + "\n";
    return all;
  };
  Sweep sweep(small_line());
  sweep.axis("n", std::vector<int>{4, 6, 8});
  SweepOptions options;
  options.horizon = 20.0;
  options.threads = 2;
  const auto two = SweepRunner(options).run(sweep);
  options.threads = 8;
  const auto eight = SweepRunner(options).run(sweep);
  SweepRunner::write_csv(two, "sweep_det_2.csv", /*include_wall=*/false);
  SweepRunner::write_csv(eight, "sweep_det_8.csv", /*include_wall=*/false);
  const std::string a = read_all("sweep_det_2.csv");
  const std::string b = read_all("sweep_det_8.csv");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // wall_seconds omitted: the files must be byte-identical
  EXPECT_EQ(a.find("wall_seconds"), std::string::npos);
  std::remove("sweep_det_2.csv");
  std::remove("sweep_det_8.csv");
}

TEST(SweepRunner, PerRunFailuresAreRecordedNotFatal) {
  auto base = small_line();
  base.gtilde_auto = false;
  base.aopt.gtilde_static = 5.0;
  Sweep sweep(base);
  // rho=0.2 violates eq. (7) for the default mu -> that run must fail while
  // the other two succeed.
  sweep.axis("rho", std::vector<double>{1e-3, 0.2, 2e-3});
  SweepOptions options;
  options.threads = 2;
  options.horizon = 30.0;
  const auto results = SweepRunner(options).run(sweep);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("AlgoParams"), std::string::npos)
      << results[1].error;
  EXPECT_TRUE(results[2].ok());
}

TEST(SweepRunner, CustomRunFnFillsValuesAndTable) {
  Sweep sweep(small_line());
  sweep.axis("n", std::vector<int>{4, 5});
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  runner.set_run_fn([](Scenario& s, RunResult& r) {
    s.start();
    s.run_until(10.0);
    r.values["logical0"] = s.engine().logical(0);
  });
  const auto results = runner.run(sweep);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.values.at("logical0"), 9.0);
    EXPECT_GT(r.events, 0u);
  }
  const Table table = SweepRunner::to_table(results, "custom");
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(SweepRunner, WritesCsv) {
  Sweep sweep(small_line());
  sweep.axis("n", std::vector<int>{4});
  SweepOptions options;
  options.horizon = 20.0;
  const auto results = SweepRunner(options).run(sweep);
  const std::string path = "sweep_test_out.csv";
  SweepRunner::write_csv(results, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("axis_n"), std::string::npos);
  EXPECT_NE(header.find("final_global"), std::string::npos);
  std::string row;
  std::getline(in, row);
  EXPECT_FALSE(row.empty());
  in.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcs
