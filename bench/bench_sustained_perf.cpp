// §V.B — sustained performance: the 2,000-step 1.4-trillion-point Blue
// Waters preparation benchmark (260 Tflop/s) and the 24-hour M8
// production run (220 Tflop/s) on 223,074 Jaguar cores. The model's
// compute term is the catalog peak times the paper's ~10% sustained
// fraction; the single-core kernel rate measured on this machine is
// printed beside it and does not feed the model.

#include <iostream>

#include "core/kernels.hpp"
#include "grid/staggered_grid.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/model.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "vcluster/cart.hpp"

using namespace awp;
using namespace awp::perfmodel;

int main() {
  std::cout << "=== Sustained performance (Section V.B) ===\n\n";

  // --- Real measured kernel rate on this host -----------------------------
  grid::StaggeredGrid g({96, 96, 96}, 100.0, 0.005);
  g.setUniformMaterial(vmodel::Material{5000.0f, 2900.0f, 2700.0f});
  core::KernelOptions opts;  // v7.2-style: reciprocals on
  opts.cacheBlocked = true;
  // Warm up, then measure.
  core::updateVelocity(g, opts);
  core::updateStress(g, opts);
  Stopwatch watch;
  const int reps = 10;
  for (int r = 0; r < reps; ++r) {
    core::updateVelocity(g, opts);
    core::updateStress(g, opts);
  }
  const double secs = watch.seconds();
  const double points = static_cast<double>(g.dims().count()) * reps;
  const double flops = points * core::flopsPerPointPerStep(false);
  const double hostGflops = flops / secs / 1e9;
  std::cout << "Measured single-core stencil rate on this host: "
            << TextTable::num(hostGflops, 2) << " Gflop/s ("
            << TextTable::num(secs / reps * 1e3, 1)
            << " ms per 96^3 step)\n\n";

  // --- Modeled sustained rates at Jaguar scale -----------------------------
  TextTable table({"Run", "Grid points", "Cores", "Paper Tflop/s",
                   "Model Tflop/s"});
  const auto traits = traitsOf(CodeVersion::V7_2);

  {
    ScalingModel model(machineByName("Jaguar"), m8Problem());
    const auto dims =
        vcluster::CartTopology::balancedDims(223074, 20250, 10125, 2125);
    table.addRow({"M8 production (24 h)", "4.36e11", "223074", "220.00",
                  TextTable::num(model.sustainedTflops(traits, dims), 2)});
  }
  {
    const auto problem = bluewatersBenchmarkProblem();
    ScalingModel model(machineByName("Jaguar"), problem);
    const auto dims = vcluster::CartTopology::balancedDims(
        223074, problem.nx, problem.ny, problem.nz);
    // A pure 2,000-step benchmark: no production output, no source
    // re-initialization (γ = φ = 0 in Eq. 7).
    const auto t = model.perStep(traits, dims, 0.0, 0.0);
    const double tf =
        ScalingModel::kDefaultFlopsPerPoint * problem.total() / t.total() /
        1e12;
    table.addRow({"2,000-step benchmark (25 m)", "1.4e12", "223074",
                  "260.00", TextTable::num(tf, 2)});
  }
  table.print(std::cout);

  std::cout << "\nShape check: the larger benchmark sustains MORE than the "
               "production run (better surface-to-volume and no "
               "production I/O), matching the paper's 260 vs 220.\n"
            << "Peak fraction: 220 Tflop/s / (223074 x 10.4 Gflops) = "
            << TextTable::pct(220e12 / (223074.0 * 10.4e9), 1)
            << " — the paper's 'approximately 10% of peak'.\n";
  return 0;
}
