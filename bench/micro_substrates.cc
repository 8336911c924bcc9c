// google-benchmark micro-benchmarks for the simulator's substrate hot paths:
// event-queue throughput, coroutine spawn/resume, page-set operations, CoW
// fault handling, snapshot take/restore, and message-bus round trips. These
// bound how large an experiment the simulator can drive (e.g. Fig 10's ~900
// microVMs with hundreds of thousands of page operations each).
#include <benchmark/benchmark.h>

#include "src/mem/address_space.h"
#include "src/mem/host_memory.h"
#include "src/mem/page_pick.h"
#include "src/mem/page_set.h"
#include "src/msgbus/broker.h"
#include "src/simcore/primitives.h"
#include "src/simcore/run_sync.h"
#include "src/simcore/simulation.h"

namespace {

using namespace fwbase::literals;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    fwsim::Simulation sim;
    for (int i = 0; i < events; ++i) {
      sim.Schedule(fwbase::Duration::Micros(i % 997), [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_CoroutineSpawnResume(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    fwsim::Simulation sim;
    for (int i = 0; i < tasks; ++i) {
      sim.Spawn([](fwsim::Simulation& s) -> fwsim::Co<void> {
        co_await fwsim::Delay(s, fwbase::Duration::Micros(1));
        co_await fwsim::Delay(s, fwbase::Duration::Micros(1));
      }(sim));
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_CoroutineSpawnResume)->Arg(1000);

void BM_PageSetSetRange(benchmark::State& state) {
  const uint64_t pages = 131072;  // 512 MiB of 4 KiB pages.
  for (auto _ : state) {
    fwmem::PageSet set(pages);
    set.SetRange(0, pages);
    benchmark::DoNotOptimize(set.Count());
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_PageSetSetRange);

void BM_CowFaultPath(benchmark::State& state) {
  // Touch + dirty a 64 MiB segment through the image-backed CoW path. A
  // 3-page segment ahead of it puts its base mid-word, so the walk has a
  // partial word at each end.
  fwmem::HostMemory host(64_GiB);
  std::shared_ptr<fwmem::SnapshotImage> image;
  {
    fwmem::AddressSpace builder(host);
    builder.AddSegment("boot", 3 * fwbase::kPageSize);
    auto seg = builder.AddSegment("mem", 64_MiB);
    builder.DirtyBytes(seg, 64_MiB);
    image = builder.TakeSnapshot("img");
  }
  const uint64_t pages = fwbase::PagesFor(64_MiB);
  for (auto _ : state) {
    fwmem::AddressSpace clone(host, image);
    auto faults = clone.Touch(1, 0, pages);
    faults += clone.Dirty(1, 0, pages);
    benchmark::DoNotOptimize(faults.Faults());
  }
  state.SetItemsProcessed(state.iterations() * pages * 2);
}
BENCHMARK(BM_CowFaultPath);

void BM_ClonePageWalk(benchmark::State& state) {
  // The guest-kernel page walk of one snapshot restore: touch 4% (the
  // clone-invariant hot pages) and dirty 2% (a per-clone salt) of a 64 MiB
  // kernel + 44 MiB OS image, then tear the clone down. A parked sibling
  // keeps the hot pages resident, as on a host serving the function. Items
  // are image pages walked.
  fwmem::HostMemory host(64_GiB);
  std::shared_ptr<fwmem::SnapshotImage> image;
  {
    fwmem::AddressSpace builder(host);
    builder.DirtyBytes(builder.AddSegment("guest_kernel", 64_MiB), 64_MiB);
    builder.DirtyBytes(builder.AddSegment("guest_os", 44_MiB), 44_MiB);
    image = builder.TakeSnapshot("img");
  }
  fwmem::AddressSpace sibling(host, image);
  sibling.TouchRandomFraction(0, 0.04, 7);
  sibling.TouchRandomFraction(1, 0.04, 8);
  uint64_t fc_id = 0;
  for (auto _ : state) {
    ++fc_id;
    fwmem::AddressSpace clone(host, image);
    auto faults = clone.TouchRandomFraction(0, 0.04, 7);
    faults += clone.TouchRandomFraction(1, 0.04, 8);
    faults += clone.DirtyRandomFraction(0, 0.02, 1000 + fc_id);
    faults += clone.DirtyRandomFraction(1, 0.02, 2000 + fc_id);
    clone.Unmap();
    benchmark::DoNotOptimize(faults.Faults());
  }
  state.SetItemsProcessed(state.iterations() * image->total_pages());
}
BENCHMARK(BM_ClonePageWalk);

void BM_PagePick(benchmark::State& state) {
  // The per-clone dirty pick of one snapshot restore, on its own: which 2% of
  // a 64 MiB kernel + 44 MiB OS image a clone's salt picks, with no fault
  // work. Items are pages hashed.
  constexpr uint64_t kPages = (64_MiB + 44_MiB) / fwbase::kPageSize;
  std::vector<uint64_t> picks(kPages / fwmem::kWordPages);
  const uint64_t threshold = fwmem::FractionThreshold(0.02);
  uint64_t fc_id = 0;
  for (auto _ : state) {
    ++fc_id;
    fwmem::PickWords(1000 + fc_id, threshold, 0, picks.size(), picks.data());
    benchmark::DoNotOptimize(picks.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kPages);
}
BENCHMARK(BM_PagePick);

void BM_PssAccounting(benchmark::State& state) {
  fwmem::HostMemory host(64_GiB);
  std::shared_ptr<fwmem::SnapshotImage> image;
  {
    fwmem::AddressSpace builder(host);
    auto seg = builder.AddSegment("mem", 128_MiB);
    builder.DirtyBytes(seg, 128_MiB);
    image = builder.TakeSnapshot("img");
  }
  std::vector<std::unique_ptr<fwmem::AddressSpace>> clones;
  for (int i = 0; i < 8; ++i) {
    clones.push_back(std::make_unique<fwmem::AddressSpace>(host, image));
    clones.back()->TouchRandomFraction(0, 0.7, 100 + i);
    clones.back()->DirtyRandomFraction(0, 0.3, 200 + i);
  }
  for (auto _ : state) {
    double pss = 0.0;
    for (const auto& clone : clones) {
      pss += clone->pss_bytes();
    }
    benchmark::DoNotOptimize(pss);
  }
}
BENCHMARK(BM_PssAccounting);

void BM_SnapshotTake(benchmark::State& state) {
  fwmem::HostMemory host(64_GiB);
  fwmem::AddressSpace space(host);
  auto seg = space.AddSegment("mem", 256_MiB);
  space.DirtyBytes(seg, 256_MiB);
  for (auto _ : state) {
    auto image = space.TakeSnapshot("img");
    benchmark::DoNotOptimize(image->valid_pages());
  }
}
BENCHMARK(BM_SnapshotTake);

void BM_BrokerRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    fwsim::Simulation sim;
    fwbus::Broker broker(sim);
    (void)broker.CreateTopic("t");
    const auto offset = fwsim::RunSync(
        sim, broker.Produce("t", 0, fwbus::Record("k", "payload-0123456789")));
    benchmark::DoNotOptimize(offset.ok());
    const auto record = fwsim::RunSync(sim, broker.ConsumeLast("t", 0));
    benchmark::DoNotOptimize(record.ok());
  }
}
BENCHMARK(BM_BrokerRoundTrip);

}  // namespace

BENCHMARK_MAIN();
