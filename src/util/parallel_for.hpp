// Shared-memory fork/join on the process-wide executor (util/executor.hpp).
//
// The benches sweep large design spaces (EXS enumerates |levels|^N
// single-mode assignments; Fig. 3 sweeps thousands of schedule phases) and
// AO scans its candidates in parallel.  parallel_for splits [0, n) into
// contiguous chunks, in the OpenMP "schedule(static)" spirit, and runs them
// on the executor's persistent workers; no thread is created per call.
//
// How a call fans out:
//   * chunk boundaries depend only on the arguments: `threads` chunks when
//     it is given, kAutoChunks when it is 0, never more than n;
//   * the caller claims chunks itself, and up to
//     min(spare workers, chunks - 1, hardware_parallelism() - 1) idle
//     executor workers claim the rest.  With no idle worker (say, every
//     thread is planning) the caller runs every chunk inline, so a nested
//     call cannot deadlock and a busy process is not oversubscribed.
//
// parallel_reduce folds each chunk into its own accumulator and joins them
// in chunk order, so its result depends on (n, threads) only — never on how
// many workers happened to help.
//
// Exceptions thrown by the body are captured and rethrown on the caller
// thread (first one wins; chunks not yet started are skipped), so contract
// violations inside workers are not lost.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/executor.hpp"

namespace foscil {

/// Chunks a parallel_for with threads = 0 splits its range into: enough
/// for dynamic claiming to balance uneven chunks across any worker count.
inline constexpr std::size_t kAutoChunks = 64;

namespace detail {

/// Runs chunk `chunk` of a fan-out; `context` points at the caller's lambda.
using ChunkFn = void (*)(const void* context, std::size_t chunk);

/// Run chunks [0, chunks), the caller and idle executor workers claiming
/// them in index order; returns once every chunk finished.  Rethrows the
/// first exception a chunk raised.
void fork_join(std::size_t chunks, ChunkFn run, const void* context);

/// The contiguous chunk layout of one call.
struct Chunking {
  Chunking(std::size_t range, unsigned threads) : n(range) {
    const std::size_t wanted =
        std::min<std::size_t>(threads == 0 ? kAutoChunks : threads, n);
    size = (n + wanted - 1) / wanted;
    count = (n + size - 1) / size;
  }

  std::size_t n;          ///< the range [0, n), n >= 1
  std::size_t size = 1;   ///< indices per chunk (the last may hold fewer)
  std::size_t count = 1;  ///< chunks

  [[nodiscard]] std::size_t begin(std::size_t chunk) const {
    return chunk * size;
  }
  [[nodiscard]] std::size_t end(std::size_t chunk) const {
    return std::min(n, begin(chunk) + size);
  }
};

/// Invoke `body(chunk, begin, end)` for every chunk of `chunking`.
template <typename Body>
void for_each_chunk(const Chunking& chunking, const Body& body) {
  const auto run = [&](std::size_t chunk) {
    body(chunk, chunking.begin(chunk), chunking.end(chunk));
  };
  fork_join(
      chunking.count,
      [](const void* context, std::size_t chunk) {
        (*static_cast<const decltype(run)*>(context))(chunk);
      },
      &run);
}

}  // namespace detail

/// Invoke `body(begin, end)` once per chunk of [0, n).  `threads` fixes the
/// chunk count (1 runs inline on the caller); 0 lets the executor decide.
template <typename Body>
void parallel_for_ranges(std::size_t n, const Body& body,
                         unsigned threads = 0) {
  if (n == 0) return;
  detail::for_each_chunk(
      detail::Chunking(n, threads),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        body(begin, end);
      });
}

/// Invoke `body(i)` for every i in [0, n), chunked as parallel_for_ranges.
template <typename Body>
void parallel_for(std::size_t n, const Body& body, unsigned threads = 0) {
  parallel_for_ranges(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      threads);
}

/// Parallel reduction: each chunk folds its range with `body(i, acc)` into a
/// local accumulator (initialized from `init`), then locals are combined
/// with `join` in index order so results are deterministic.
template <typename Acc, typename Body, typename Join>
Acc parallel_reduce(std::size_t n, Acc init, const Body& body,
                    const Join& join, unsigned threads = 0) {
  if (n == 0) return init;
  const detail::Chunking chunking(n, threads);
  std::vector<Acc> locals(chunking.count, init);
  detail::for_each_chunk(
      chunking, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        Acc acc = init;
        for (std::size_t i = begin; i < end; ++i) acc = body(i, acc);
        locals[chunk] = acc;
      });
  Acc result = init;
  for (const auto& acc : locals) result = join(result, acc);
  return result;
}

}  // namespace foscil
