// Self-test of the benchmark's allocation counter: a loop that makes a
// known number of heap allocations must read back exactly that number, on
// the calling thread only. Exits non-zero on any mismatch.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "../alloc_counter.hpp"

namespace {

int failures = 0;

void Expect(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    std::fprintf(stderr, "alloc_counter_test: %s: counted %llu, want %llu\n",
                 what, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ++failures;
  }
}

}  // namespace

int main() {
  constexpr std::uint64_t kLoops = 1000;

  // The allocations are kept alive in pre-reserved vectors so the compiler
  // cannot elide a new/delete pair.
  std::vector<std::unique_ptr<std::uint64_t>> scalars;
  std::vector<std::unique_ptr<int[]>> arrays;
  scalars.reserve(kLoops);
  arrays.reserve(kLoops);
  std::uint64_t before = perfbench::ThreadAllocations();
  for (std::uint64_t i = 0; i < kLoops; ++i) {
    scalars.push_back(std::make_unique<std::uint64_t>(i));
    arrays.push_back(
        std::make_unique<int[]>(static_cast<std::size_t>(i % 7 + 1)));
  }
  Expect("new + new[]", perfbench::ThreadAllocations() - before, 2 * kLoops);

  before = perfbench::ThreadAllocations();
  std::vector<int> v;
  v.reserve(kLoops);
  for (std::uint64_t i = 0; i < kLoops; ++i) v.push_back(static_cast<int>(i));
  Expect("reserved vector", perfbench::ThreadAllocations() - before, 1);

  struct alignas(64) Wide {
    char bytes[64];
  };
  std::vector<std::unique_ptr<Wide>> wides;
  wides.reserve(kLoops);
  before = perfbench::ThreadAllocations();
  for (std::uint64_t i = 0; i < kLoops; ++i) {
    wides.push_back(std::make_unique<Wide>());
  }
  Expect("aligned new", perfbench::ThreadAllocations() - before, kLoops);

  // Another thread's allocations do not show on this thread's count.
  before = perfbench::ThreadAllocations();
  std::uint64_t other = 0;
  std::thread t([&other] {
    std::vector<std::unique_ptr<int>> kept;
    kept.reserve(kLoops);
    const std::uint64_t start = perfbench::ThreadAllocations();
    for (std::uint64_t i = 0; i < kLoops; ++i) {
      kept.push_back(std::make_unique<int>(static_cast<int>(i)));
    }
    other = perfbench::ThreadAllocations() - start;
  });
  const std::uint64_t spawn = perfbench::ThreadAllocations() - before;
  t.join();
  Expect("other thread", other, kLoops);
  before += spawn;
  Expect("this thread while another allocates",
         perfbench::ThreadAllocations() - before, 0);

  if (failures == 0) std::printf("alloc_counter_test: ok\n");
  return failures == 0 ? 0 : 1;
}
