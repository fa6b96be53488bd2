// Collectives — PAMI's geometry collectives (paper §III-D, §IV-B/C).
//
// Two paths, chosen by whether the geometry holds a classroute:
//
//  * Optimized (collective network): barrier = node-local L2-atomic
//    barrier + global-interrupt round; broadcast/(all)reduce = RDMA
//    combine/broadcast on the embedded collective network, with the
//    shared-address node protocols of Figures 3 and 4 — peers publish
//    their buffers, local math is parallelized across the node's
//    processes, only the node master talks to the network, and peers copy
//    results straight out of the master's buffer through the CNK global
//    VA. Long reductions pipeline in slices.
//
//  * Software (irregular geometries, or after deoptimize): dissemination
//    barrier, binomial broadcast/reduce, pairwise all-to-all — built on
//    PAMI active-message sends, so they exercise the same pt2pt stack.
//
// All calls are blocking and advance the caller's context while waiting;
// software-path calls must run on context 0 (where the collective dispatch
// is registered).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/context.h"
#include "core/geometry.h"
#include "hw/classroute.h"

namespace pamix::pami::coll {

/// Default pipeline slice for long reductions (Figure 4).
inline constexpr std::size_t kPipelineSliceBytes = 64 * 1024;

/// Default rectangle-broadcast relay chunk (cut-through streaming). Tuned
/// by the DES chunk sweep (bench/ablate_rect_chunk): 1K keeps the deep
/// color trees' pipelines full — fill latency stops dominating — while
/// staying well inside the buffer-pool size classes, so relays are
/// allocation-free in steady state.
inline constexpr std::size_t kRectChunkBytes = 1024;

/// In-flight bound of the chunked rectangle relay: a master may run at
/// most this many chunks of one color ahead of a child's acknowledgment.
/// The stand-in for finite reception FIFOs — without it a fast parent
/// would pile unbounded pooled deposits onto a slow subtree.
inline constexpr std::uint32_t kRectWindowChunks = 8;

/// Children acknowledge every kRectAckChunks-th chunk (and always the
/// last), so ack traffic is a fraction of data traffic. Must divide into
/// the window: kRectWindowChunks >= 2 * kRectAckChunks keeps the pipe full
/// while an ack is in flight.
inline constexpr std::uint32_t kRectAckChunks = 4;

/// Dispatch id reserved for the software-collective engine.
inline constexpr DispatchId kCollDispatchId = 0xF01;

/// Runtime-tunable collective parameters. Initialized once per process
/// from the environment (PAMIX_COLL_SLICE, PAMIX_COLL_RADIX,
/// PAMIX_COLL_OVERLAP) with warn-and-keep validation, then freely mutable:
/// benches A/B the overlap pipeline and tests sweep the radix in-process.
/// Every task of a job must see the same values while a collective is in
/// flight (they shape the shared round schedule).
struct CollTuning {
  /// Pipeline slice in bytes. Must be a multiple of 64 so no combine
  /// element ever straddles a slice boundary.
  std::size_t slice_bytes = kPipelineSliceBytes;
  /// Fan-out of the k-nomial software broadcast/reduce trees (>= 2).
  int radix = 2;
  /// When false, the master blocks on each network round before starting
  /// the next slice (the pre-pipeline schedule; benches use it as the
  /// "before" arm of the overlap A/B).
  bool overlap = true;
  /// Rectangle-broadcast relay chunk in bytes (PAMIX_RECT_CHUNK, K/M
  /// suffixes accepted, exported as config.rect_chunk). Interior nodes
  /// forward chunk k down their color tree while chunk k+1 is still
  /// arriving — cut-through instead of store-and-forward. 0 selects the
  /// legacy whole-slice store-and-forward relay (the A/B baseline arm).
  std::size_t rect_chunk = kRectChunkBytes;
};

CollTuning& tuning();

/// Register the software-collective dispatch on every context of a client.
/// Called from Client construction; callable again idempotently.
void register_collective_dispatch(Client& client);

/// Growth of a client's software-collective state, for zero-allocation
/// diagnostics: deposit-pool misses (each allocated a block) and the
/// number of match slots (the table only grows).
struct CollStateStats {
  std::uint64_t pool_misses = 0;
  std::size_t match_slots = 0;
};
CollStateStats coll_state_stats(Client& client);

void barrier(Context& ctx, Geometry& g);

/// Always-software barrier, regardless of optimization state. Used to
/// fence optimize/deoptimize transitions (the software path works in both
/// states, so every member can meet here while they disagree about the
/// classroute).
void software_barrier(Context& ctx, Geometry& g);

void broadcast(Context& ctx, Geometry& g, std::size_t root_rank, void* buffer,
               std::size_t bytes);

void allreduce(Context& ctx, Geometry& g, const void* sendbuf, void* recvbuf,
               std::size_t bytes, hw::CombineOp op, hw::CombineType type);

void reduce(Context& ctx, Geometry& g, std::size_t root_rank, const void* sendbuf,
            void* recvbuf, std::size_t bytes, hw::CombineOp op, hw::CombineType type);

// --- Extensions (paper §VI future work) -------------------------------------

/// Pairwise-exchange all-to-all: `bytes_per_rank` from/to every member.
void alltoall(Context& ctx, Geometry& g, const void* sendbuf, void* recvbuf,
              std::size_t bytes_per_rank);

void gather(Context& ctx, Geometry& g, std::size_t root_rank, const void* sendbuf,
            void* recvbuf, std::size_t bytes_per_rank);

void scatter(Context& ctx, Geometry& g, std::size_t root_rank, const void* sendbuf,
             void* recvbuf, std::size_t bytes_per_rank);

/// Allgather: every member contributes `bytes_per_rank`; every member
/// receives the full concatenation in rank order.
void allgather(Context& ctx, Geometry& g, const void* sendbuf, void* recvbuf,
               std::size_t bytes_per_rank);

/// Block reduce-scatter: elementwise reduction of each member's
/// (size * bytes_per_rank) vector, with rank r receiving block r.
void reduce_scatter(Context& ctx, Geometry& g, const void* sendbuf, void* recvbuf,
                    std::size_t bytes_per_rank, hw::CombineOp op, hw::CombineType type);

/// Multicolor rectangle broadcast (Figure 10), functional: the message is
/// split into one slice per color and each slice streams down its own
/// edge-disjoint spanning tree over PAMI point-to-point sends (torus
/// links), rather than the collective network. Slices move in
/// tuning().rect_chunk-sized chunks with a bounded relay window
/// (kRectWindowChunks) so an interior node forwards chunk k while chunk
/// k+1 is still arriving; every chunk send carries the claimed link's
/// torus hint bits. rect_chunk == 0 falls back to whole-slice
/// store-and-forward. Requires a rectangle-eligible geometry; falls back
/// to the regular broadcast otherwise (counted in coll.rect_fallbacks,
/// warned once). The constructed trees are cached on the geometry.
void rectangle_broadcast(Context& ctx, Geometry& g, std::size_t root_rank, void* buffer,
                         std::size_t bytes);

}  // namespace pamix::pami::coll
