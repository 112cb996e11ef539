// §IV.B — single-CPU optimization microbenchmarks (google-benchmark).
// Paper-reported gains at full Jaguar scale: reciprocal arithmetic 31%,
// 2x unrolling 2%, cache blocking 7% (40% total); kblock/jblock = 16/8
// optimal for loop length ~125 with ~3% spread between nearby blockings.
// The reciprocal gain is measured on the scalar reference kernel (the
// only kernel that keeps the per-use divisions); blocking and the block
// sweep run on the production kernel, which BM_Fast compares against the
// reference.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "core/kernels.hpp"
#include "grid/staggered_grid.hpp"

using namespace awp;

namespace {

grid::StaggeredGrid& testGrid() {
  static grid::StaggeredGrid g = [] {
    grid::StaggeredGrid grid({125, 125, 64}, 100.0, 0.005);
    grid.setUniformMaterial(vmodel::Material{5000.0f, 2900.0f, 2700.0f});
    // Non-trivial wavefield so the arithmetic is realistic.
    for (std::size_t n = 0; n < grid.u.size(); ++n) {
      grid.u.data()[n] = static_cast<float>(n % 97) * 1e-3f;
      grid.v.data()[n] = static_cast<float>(n % 89) * 1e-3f;
      grid.w.data()[n] = static_cast<float>(n % 83) * 1e-3f;
      grid.xx.data()[n] = static_cast<float>(n % 79) * 1e2f;
      grid.xy.data()[n] = static_cast<float>(n % 73) * 1e2f;
    }
    return grid;
  }();
  return g;
}

// The fields every benchmark starts from, saved before any of them runs.
const std::vector<std::byte>& initialState() {
  static const std::vector<std::byte> state = testGrid().saveState();
  return state;
}

// One full time step (velocity then stress) per iteration, through either
// the production kernel or the scalar reference kernel. Each run restarts
// from the initial fields, so every variant measures the same state.
void runStep(benchmark::State& state, const core::KernelOptions& opts,
             bool reference) {
  auto& g = testGrid();
  g.restoreState(initialState());
  const core::Region r = core::Region::interior(g);
  for (auto _ : state) {
    if (reference) {
      for (auto c : {core::VelocityComponent::U, core::VelocityComponent::V,
                     core::VelocityComponent::W})
        core::reference::updateVelocity(g, c, opts, r);
      for (auto s : {core::StressGroup::Normal, core::StressGroup::XY,
                     core::StressGroup::XZ, core::StressGroup::YZ})
        core::reference::updateStress(g, s, opts, r);
    } else {
      core::updateVelocity(g, opts);
      core::updateStress(g, opts);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.dims().count()));
  state.counters["ns/point"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.dims().count()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_ReferencePlain(benchmark::State& state) {
  core::KernelOptions opts;
  opts.useReciprocals = false;
  runStep(state, opts, /*reference=*/true);
}

void BM_ReferenceReciprocal(benchmark::State& state) {
  runStep(state, core::KernelOptions{}, /*reference=*/true);
}

void BM_Fast(benchmark::State& state) {
  runStep(state, core::KernelOptions{}, /*reference=*/false);
}

void BM_FastBlocked(benchmark::State& state) {
  core::KernelOptions opts;
  opts.cacheBlocked = true;
  runStep(state, opts, /*reference=*/false);
}

// kblock/jblock sweep around the paper's 16/8 optimum.
void BM_BlockingSweep(benchmark::State& state) {
  core::KernelOptions opts;
  opts.cacheBlocked = true;
  opts.kblock = static_cast<int>(state.range(0));
  opts.jblock = static_cast<int>(state.range(1));
  runStep(state, opts, /*reference=*/false);
}

}  // namespace

BENCHMARK(BM_ReferencePlain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReferenceReciprocal)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fast)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FastBlocked)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlockingSweep)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({32, 16})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
