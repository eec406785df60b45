#include "core/progressive_reader.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>
#include <utility>

#include "core/delta.hpp"
#include "io/io_ring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/blob_frame.hpp"
#include "storage/fault.hpp"
#include "util/assert.hpp"

namespace canopus::core {

RetrievalTimings& RetrievalTimings::operator+=(const RetrievalTimings& o) {
  io_seconds += o.io_seconds;
  decompress_seconds += o.decompress_seconds;
  restore_seconds += o.restore_seconds;
  bytes_read += o.bytes_read;
  retries += o.retries;
  corruptions_detected += o.corruptions_detected;
  replica_reads += o.replica_reads;
  degraded_steps += o.degraded_steps;
  return *this;
}

std::string to_string(RefineStatus status) {
  switch (status) {
    case RefineStatus::kOk: return "ok";
    case RefineStatus::kRetried: return "retried";
    case RefineStatus::kDegraded: return "degraded";
  }
  CANOPUS_UNREACHABLE("unknown refine status");
}

namespace {
/// Folds one read's bytes and robustness counters into the step accumulator.
void count(const adios::ReadTiming& t, RetrievalTimings& step) {
  step.bytes_read += t.bytes_read;
  step.retries += t.retries;
  step.corruptions_detected += t.corruptions;
  if (t.from_replica) ++step.replica_reads;
}

/// Folds one block read's timing (including the hierarchy's robustness
/// counters) into the step accumulator.
void fold(const adios::ReadTiming& t, RetrievalTimings& step) {
  step.io_seconds += t.io_sim_seconds;
  step.decompress_seconds += t.decompress_seconds;
  count(t, step);
}

/// Charges fetched delta chunks to the step: each read's counters, and on
/// the simulated clock the reads' makespan on `depth` overlapped lanes,
/// added onto what the step was already charged. At depth 1 that is the
/// ordered per-read sum, bit-identical to a serial per-chunk fold even when
/// a backfill charged the same step first.
void charge(const std::vector<adios::BpReader::RawChunk>& chunks,
            std::uint32_t depth, RetrievalTimings& step) {
  std::vector<double> costs;
  costs.reserve(chunks.size());
  for (const auto& rc : chunks) {
    count(rc.io, step);
    costs.push_back(rc.io.io_sim_seconds);
  }
  step.io_seconds = io::overlap_makespan(costs, depth, step.io_seconds);
}

/// RMS of a delta field. Permutation-invariant, so equally valid on the
/// Morton storage order and the vertex order.
double rms_of(const mesh::Field& delta) {
  if (delta.empty()) return 0.0;
  double sum2 = 0.0;
  for (const double d : delta) sum2 += d * d;
  return std::sqrt(sum2 / static_cast<double>(delta.size()));
}

/// Spatially permuted (chunked) deltas are stored in Morton order; scatter
/// them back to vertex order. The scatter targets are a permutation, so the
/// pool fan-out writes disjoint entries and the result is order-independent.
mesh::Field unpermute_delta(const mesh::Field& stored,
                            const std::vector<mesh::VertexId>& order,
                            util::ThreadPool& pool) {
  CANOPUS_CHECK(stored.size() == order.size(),
                "chunked delta size inconsistent with its mesh");
  mesh::Field delta(stored.size());
  pool.parallel_for(
      0, order.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pos = lo; pos < hi; ++pos) {
          delta[order[pos]] = stored[pos];
        }
      },
      /*grain=*/4096);
  return delta;
}
}  // namespace

ProgressiveReader::ProgressiveReader(storage::StorageHierarchy& hierarchy,
                                     const std::string& path, std::string var,
                                     const GeometryCache* geometry,
                                     ReaderOptions options)
    : hierarchy_(hierarchy),
      reader_(hierarchy, path),
      var_(std::move(var)),
      geometry_(geometry) {
  if (options.shared_pool != nullptr) {
    shared_pool_ = options.shared_pool;
  } else if (options.parallel.threads > 0) {
    local_pool_.emplace(options.parallel.threads);
  }
  io_config_ = options.io;
  // Read-ahead needs at least one worker besides the applying thread; with a
  // single pinned worker the reader stays fully serial, by design.
  read_ahead_ = options.parallel.read_ahead && pool().size() > 1;

  const auto levels_attr = reader_.attribute("levels");
  CANOPUS_CHECK(levels_attr.has_value(), "container missing 'levels' attribute");
  levels_ = static_cast<std::size_t>(std::stoul(*levels_attr));
  if (const auto est = reader_.attribute("estimate")) {
    estimate_ = estimate_mode_from_string(*est);
  }
  CANOPUS_CHECK(!geometry_ || geometry_->level_count() == levels_,
                "geometry cache does not match this container");

  current_level_ = static_cast<std::uint32_t>(levels_ - 1);
  // The base retrieval rides on the hierarchy's retries + replica fallback
  // (BpWriter replicates base blocks); with no copy left there is nothing to
  // degrade to, so a failure here propagates.
  CANOPUS_SPAN("read.open_base", {{"var", var_}, {"level", current_level_}});
  adios::ReadTiming data_t;
  values_ = reader_.read_doubles(var_, adios::BlockKind::kBase, current_level_,
                                 &data_t);
  if (!geometry_) {
    adios::ReadTiming mesh_t;
    const auto raw =
        reader_.read_opaque(var_, adios::BlockKind::kMesh, current_level_, &mesh_t);
    util::ByteReader br(raw);
    util::WallTimer t;
    mesh_ = mesh::TriMesh::deserialize(br);
    cumulative_.restore_seconds += t.seconds();
    fold(mesh_t, cumulative_);
  }
  fold(data_t, cumulative_);
  CANOPUS_CHECK(values_.size() == current_mesh().vertex_count(),
                "base level inconsistent with its mesh");
}

ProgressiveReader::~ProgressiveReader() {
  if (prefetch_.valid()) prefetch_.wait();
}

util::ThreadPool& ProgressiveReader::pool() const {
  if (shared_pool_ != nullptr) return *shared_pool_;
  return local_pool_ ? *local_pool_ : util::ThreadPool::global();
}

double ProgressiveReader::decimation_ratio() const {
  if (!full_vertex_count_) {
    // Vertex count of L^0 = size of the finest delta (one delta entry per
    // fine vertex, summed across chunks), available from metadata without
    // touching the data.
    const auto info = reader_.inq_var(var_);
    std::size_t finest_count = 0;
    for (const auto& b : info.blocks) {
      if (b.kind == adios::BlockKind::kDelta && b.level == 0) {
        finest_count += static_cast<std::size_t>(b.value_count);
      }
    }
    full_vertex_count_ = finest_count > 0 ? finest_count : values_.size();
  }
  return static_cast<double>(*full_vertex_count_) /
         static_cast<double>(values_.size());
}

std::vector<std::uint32_t> ProgressiveReader::all_chunks(
    std::uint32_t level) const {
  const auto info = reader_.inq_var(var_);
  const auto* first = info.block(adios::BlockKind::kDelta, level);
  std::vector<std::uint32_t> ids(first != nullptr ? first->chunk_count : 0);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

ProgressiveReader::FetchedChunks ProgressiveReader::fetch_chunks(
    std::uint32_t level, const std::vector<std::uint32_t>& ids) const {
  // The ring executes its FIFO strictly in submission order, so the
  // hierarchy sees the reads in the order the caller listed them. That keeps
  // tier access accounting (and the fault injector's seeded decision stream)
  // reproducible for any depth.
  // The span runs on whichever thread fetches — the caller for a synchronous
  // fetch, a pool worker for the read-ahead — so the trace shows which reads
  // were overlapped.
  CANOPUS_SPAN("read.fetch", {{"level", level}, {"chunks", ids.size()}});
  FetchedChunks out;
  out.level = level;
  try {
    const auto info = reader_.inq_var(var_);
    std::vector<const adios::BlockRecord*> records;  // indexed by chunk id
    for (const auto& b : info.blocks) {
      if (b.kind != adios::BlockKind::kDelta || b.level != level) continue;
      if (b.chunk >= records.size()) records.resize(b.chunk + 1, nullptr);
      records[b.chunk] = &b;
    }
    io::IoRing ring(hierarchy_, io_config_, &pool());
    for (const std::uint32_t c : ids) {
      CANOPUS_CHECK(c < records.size() && records[c] != nullptr,
                    "delta chunk record missing");
      CANOPUS_CHECK(records[c]->codec != "none",
                    "block is opaque; use read_opaque");
      ring.submit(records[c]->object_key);
    }
    out.chunks.reserve(ids.size());
    for (const std::uint32_t c : ids) {
      auto done = ring.wait_next();
      // The first failed read ends the fetch, like a serial loop; the ring's
      // destructor drops the not-yet-executed remainder.
      if (done.error) std::rethrow_exception(done.error);
      out.chunks.push_back(
          {*records[c], std::move(done.payload), adios::read_timing(done.io)});
    }
  } catch (...) {
    out.error = std::current_exception();
  }
  return out;
}

ProgressiveReader::FetchedChunks ProgressiveReader::take_prefetch(
    std::uint32_t level) {
  auto& registry = obs::MetricsRegistry::global();
  if (prefetch_.valid()) {
    FetchedChunks p = prefetch_.get();
    prefetch_level_.reset();
    if (p.level == level) {
      registry.counter("reader.prefetch_hits").add(1);
      return p;
    }
    // Stale read-ahead (a refine_region() or degraded step changed course):
    // drop it. Speculative reads never enter the retrieval clock.
    registry.counter("reader.prefetch_stale").add(1);
  } else if (read_ahead_) {
    registry.counter("reader.prefetch_misses").add(1);
  }
  return fetch_chunks(level, all_chunks(level));
}

void ProgressiveReader::start_prefetch(std::uint32_t level) {
  if (!read_ahead_ || prefetch_.valid()) return;
  // Cache-aware read-ahead: when every delta chunk of the level is already
  // resident in the shared block cache, the synchronous fetch will be all
  // hits at zero simulated cost — spending a pool worker on it would only
  // add task overhead and steal a thread from sibling sessions.
  if (const cache::BlockCache* cache = hierarchy_.block_cache()) {
    const auto info = reader_.inq_var(var_);
    std::size_t chunks = 0;
    bool resident = true;
    for (const auto& b : info.blocks) {
      if (b.kind != adios::BlockKind::kDelta || b.level != level) continue;
      ++chunks;
      if (!cache->contains(b.object_key)) {
        resident = false;
        break;
      }
    }
    if (chunks > 0 && resident) {
      obs::MetricsRegistry::global()
          .counter("reader.prefetch_skipped_cached")
          .add(1);
      return;
    }
  }
  prefetch_ = pool().submit(
      [this, level] { return fetch_chunks(level, all_chunks(level)); });
  prefetch_level_ = level;
}

std::vector<cache::BlockCache::ArrayPtr> ProgressiveReader::decode_chunks(
    const FetchedChunks& fetched, RetrievalTimings& step) {
  // Charge the landed reads first (read-ahead I/O is charged to the step
  // that consumes it), then surface a fetch failure: partial timings kept,
  // exception propagated.
  charge(fetched.chunks, io_config_.depth, step);
  if (fetched.error) std::rethrow_exception(fetched.error);

  CANOPUS_SPAN("read.decompress",
               {{"level", fetched.level}, {"chunks", fetched.chunks.size()}});
  cache::BlockCache* cache = hierarchy_.block_cache();
  std::vector<cache::BlockCache::ArrayPtr> parts(fetched.chunks.size());
  std::vector<double> decode_seconds(fetched.chunks.size(), 0.0);
  pool().parallel_for(0, fetched.chunks.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      const auto& rc = fetched.chunks[c];
      if (cache != nullptr) {
        // Second cache level: the decoded array, under the chunk's "#decoded"
        // alias, so sibling sessions skip the decompression too. Single-flight
        // means exactly one session pays the decode; only that leader's wall
        // time lands in decode_seconds (hits charge zero, like cached I/O).
        parts[c] = cache
                       ->get_or_load_array(
                           storage::StorageHierarchy::decoded_alias(
                               rc.record.object_key),
                           [&] {
                             return adios::BpReader::decode_chunk(
                                 rc.record, rc.payload, &decode_seconds[c]);
                           })
                       .array;
      } else {
        parts[c] = std::make_shared<const std::vector<double>>(
            adios::BpReader::decode_chunk(rc.record, rc.payload,
                                          &decode_seconds[c]));
      }
    }
  });
  for (const double s : decode_seconds) step.decompress_seconds += s;
  return parts;
}

RetrievalTimings ProgressiveReader::degrade(RetrievalTimings step) {
  // The fetch failed after retries and replica fallback: keep the last good
  // level (values_/mesh_/current_level_ were not touched yet) and surface the
  // outcome as a status, not an exception — analytics continue on what they
  // have, exactly the elastic-accuracy contract.
  step.degraded_steps += 1;
  obs::MetricsRegistry::global().counter("reader.degraded_steps").add(1);
  last_status_ = RefineStatus::kDegraded;
  cumulative_ += step;
  return step;
}

RetrievalTimings ProgressiveReader::refine() {
  CANOPUS_CHECK(current_level_ > 0, "already at full accuracy");
  const std::uint32_t next = current_level_ - 1;

  // Dynamic span name so the summary table gets one latency row per level.
  CANOPUS_SPAN("read.refine.L" + std::to_string(next), {{"var", var_}});
  RetrievalTimings step;
  double delta_rms = 0.0;
  try {
    // A prior regional step skipped chunks at the current level: re-read and
    // apply them first, so this full delta lands on a full-accuracy level and
    // partially_refined() turns false again. (Once regional steps have
    // stacked, skipped_ is empty and the flag stays sticky — the missing
    // deltas already propagated through finer estimates.)
    if (skipped_ && skipped_->level == current_level_) backfill_skipped(step);
    const auto parts = decode_chunks(take_prefetch(next), step);
    CANOPUS_CHECK(!parts.empty(), "delta block missing");
    // A multi-chunk delta is stored in Morton order (unpermuted below).
    const bool chunked = parts.size() > 1;
    mesh::Field delta;
    for (const auto& p : parts) delta.insert(delta.end(), p->begin(), p->end());
    delta_rms = rms_of(delta);

    if (geometry_) {
      // Every read of this step is done: overlap the (pure compute) unpermute
      // and restore below with the read-ahead of the following delta. Issuing
      // it here keeps the hierarchy's global read order identical to the
      // serial reader's.
      if (next > 0) start_prefetch(next - 1);
      CANOPUS_SPAN("read.restore", {{"level", next}});
      util::WallTimer t;
      if (chunked) delta = unpermute_delta(delta, geometry_->order(next), pool());
      values_ = restore_level(geometry_->meshes[current_level_], values_, delta,
                              geometry_->mappings[next], estimate_, &pool());
      step.restore_seconds = t.seconds();
    } else {
      adios::ReadTiming map_t, mesh_t;
      const auto map_raw =
          reader_.read_opaque(var_, adios::BlockKind::kMapping, next, &map_t);
      const auto mesh_raw =
          reader_.read_opaque(var_, adios::BlockKind::kMesh, next, &mesh_t);
      fold(map_t, step);
      fold(mesh_t, step);
      if (next > 0) start_prefetch(next - 1);

      CANOPUS_SPAN("read.restore", {{"level", next}});
      util::WallTimer t;
      util::ByteReader mesh_reader(mesh_raw);
      const auto fine_mesh = mesh::TriMesh::deserialize(mesh_reader);
      if (chunked) {
        delta = unpermute_delta(delta, *cached_spatial_order(fine_mesh), pool());
      }
      util::ByteReader map_reader(map_raw);
      const auto mapping = VertexMapping::deserialize(map_reader);
      values_ = restore_level(mesh_, values_, delta, mapping, estimate_, &pool());
      mesh_ = fine_mesh;
      step.restore_seconds = t.seconds();
    }
  } catch (const storage::TierIoError&) {
    return degrade(std::move(step));
  } catch (const storage::IntegrityError&) {
    return degrade(std::move(step));
  }
  current_level_ = next;
  last_delta_rms_ = delta_rms;
  last_status_ = step.retries > 0 || step.replica_reads > 0
                     ? RefineStatus::kRetried
                     : RefineStatus::kOk;
  CANOPUS_CHECK(values_.size() == current_mesh().vertex_count(),
                "restored level inconsistent with its mesh");
  cumulative_ += step;
  return step;
}

void ProgressiveReader::backfill_skipped(RetrievalTimings& step) {
  SkippedChunks& sk = *skipped_;
  CANOPUS_SPAN("read.backfill",
               {{"level", sk.level}, {"chunks", sk.chunks.size()}});
  // Skipped chunks were applied as delta = 0 during the regional restore
  // (fine = estimate + delta), so adding the stored values back is an exact
  // fix-up: estimate + 0 + d computes the same bits as estimate + d.
  const std::vector<mesh::VertexId>* order = nullptr;
  std::shared_ptr<const std::vector<mesh::VertexId>> local_order;
  if (geometry_) {
    order = &geometry_->order(sk.level);
  } else {
    local_order = cached_spatial_order(mesh_);
    order = local_order.get();
  }
  auto& pending = sk.chunks;
  // Fetched in pop_back order, so the landed prefix of a failed fetch is
  // exactly the chunks to apply and pop. Applying it before surfacing the
  // failure leaves an exactly resumable remainder (the caller degrades; the
  // flag stays set).
  FetchedChunks fetched =
      fetch_chunks(sk.level, {pending.rbegin(), pending.rend()});
  const std::exception_ptr error = std::exchange(fetched.error, nullptr);
  const auto parts = decode_chunks(fetched, step);
  util::WallTimer timer;
  for (const auto& part : parts) {
    const auto& range = sk.index.chunks[pending.back()];
    CANOPUS_CHECK(part->size() == range.count,
                  "chunk size inconsistent with its index");
    const auto start = static_cast<std::size_t>(range.start);
    for (std::size_t i = 0; i < part->size(); ++i) {
      values_[(*order)[start + i]] += (*part)[i];
    }
    pending.pop_back();
  }
  step.restore_seconds += timer.seconds();
  if (error) std::rethrow_exception(error);
  partially_refined_ = false;
  skipped_.reset();
}

RetrievalTimings ProgressiveReader::refine_region(const mesh::Aabb& roi) {
  CANOPUS_CHECK(current_level_ > 0, "already at full accuracy");
  const std::uint32_t next = current_level_ - 1;
  CANOPUS_SPAN("read.refine_region", {{"level", next}});
  // A pending read-ahead holds every chunk of the level; a regional step
  // wants only a subset with different accounting, so retire it first.
  if (prefetch_.valid()) prefetch_.wait();

  // Without a chunk index the delta is monolithic: fall back to full refine.
  // A faulted index read, by contrast, degrades like any other failed fetch.
  ChunkIndex index;
  try {
    RetrievalTimings probe;  // folded into the step below
    adios::ReadTiming t;
    const auto raw =
        reader_.read_opaque(var_, adios::BlockKind::kChunkIndex, next, &t);
    util::ByteReader br(raw);
    index = ChunkIndex::deserialize(br);
    fold(t, probe);
    cumulative_ += probe;
  } catch (const storage::TierIoError&) {
    return degrade(RetrievalTimings{});
  } catch (const storage::IntegrityError&) {
    return degrade(RetrievalTimings{});
  } catch (const Error&) {
    return refine();
  }

  RetrievalTimings step;
  double delta_rms = 0.0;
  std::vector<std::uint32_t> skipped_ids;
  try {
    std::size_t fine_count = 0;
    for (const auto& c : index.chunks) fine_count += c.count;
    // Delta in Morton storage order; unfetched chunks stay zero (estimate-only).
    mesh::Field stored(fine_count, 0.0);
    const std::vector<std::uint32_t> wanted = index.intersecting(roi);
    const auto parts = decode_chunks(fetch_chunks(next, wanted), step);
    for (std::size_t k = 0; k < parts.size(); ++k) {
      const auto& range = index.chunks[wanted[k]];
      CANOPUS_CHECK(parts[k]->size() == range.count,
                    "chunk size inconsistent with its index");
      std::copy(parts[k]->begin(), parts[k]->end(),
                stored.begin() + static_cast<long>(range.start));
    }
    // `wanted` is ascending (index.intersecting scans chunks in order).
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(index.chunks.size()); ++c) {
      if (!std::binary_search(wanted.begin(), wanted.end(), c)) {
        skipped_ids.push_back(c);
      }
    }
    delta_rms = rms_of(stored);  // lower bound: skipped chunks count as zero

    if (geometry_) {
      util::WallTimer t;
      const auto delta = unpermute_delta(stored, geometry_->order(next), pool());
      values_ = restore_level(geometry_->meshes[current_level_], values_, delta,
                              geometry_->mappings[next], estimate_, &pool());
      step.restore_seconds = t.seconds();
    } else {
      adios::ReadTiming map_t, mesh_t;
      const auto map_raw =
          reader_.read_opaque(var_, adios::BlockKind::kMapping, next, &map_t);
      const auto mesh_raw =
          reader_.read_opaque(var_, adios::BlockKind::kMesh, next, &mesh_t);
      fold(map_t, step);
      fold(mesh_t, step);
      util::WallTimer t;
      util::ByteReader mesh_reader(mesh_raw);
      const auto fine_mesh = mesh::TriMesh::deserialize(mesh_reader);
      const auto delta =
          unpermute_delta(stored, *cached_spatial_order(fine_mesh), pool());
      util::ByteReader map_reader(map_raw);
      const auto mapping = VertexMapping::deserialize(map_reader);
      values_ = restore_level(mesh_, values_, delta, mapping, estimate_, &pool());
      mesh_ = fine_mesh;
      step.restore_seconds = t.seconds();
    }
  } catch (const storage::TierIoError&) {
    return degrade(std::move(step));
  } catch (const storage::IntegrityError&) {
    return degrade(std::move(step));
  }
  current_level_ = next;
  last_delta_rms_ = delta_rms;
  last_status_ = step.retries > 0 || step.replica_reads > 0
                     ? RefineStatus::kRetried
                     : RefineStatus::kOk;
  // Skip-set bookkeeping for the backfill in refine(). Any previously
  // recorded set is now stale — it applied to a coarser level the reader has
  // moved past.
  const bool was_partial = partially_refined_;
  skipped_.reset();
  if (!skipped_ids.empty()) {
    if (!was_partial) {
      // Clean reader, first partial level: an exact additive backfill is
      // possible until further regional steps stack on top.
      skipped_ = SkippedChunks{next, std::move(index), std::move(skipped_ids)};
    }
    partially_refined_ = true;
  }
  // The ROI covered every chunk: a full-accuracy refine in disguise, the
  // partial flag keeps its previous value.
  CANOPUS_CHECK(values_.size() == current_mesh().vertex_count(),
                "restored level inconsistent with its mesh");
  cumulative_ += step;
  return step;
}

RetrievalTimings ProgressiveReader::refine_to(std::uint32_t level) {
  CANOPUS_CHECK(level < levels_, "level out of range");
  RetrievalTimings acc;
  while (current_level_ > level) {
    acc += refine();
    if (last_status_ == RefineStatus::kDegraded) break;
  }
  return acc;
}

RetrievalTimings ProgressiveReader::refine_until(double rmse_threshold) {
  // NaN poisons every comparison below (rmse < NaN is false, so a NaN
  // threshold would silently refine to full accuracy); reject it loudly. A
  // finite threshold <= 0 is legal and means "no early stop" — an RMS is
  // >= 0, so refinement runs to full accuracy by construction.
  CANOPUS_CHECK(std::isfinite(rmse_threshold),
                "refine_until: rmse_threshold must be finite");
  RetrievalTimings acc;
  while (current_level_ > 0) {
    const mesh::Field before = values_;          // values at the coarser level
    const mesh::TriMesh coarse = current_mesh(); // its mesh (for the estimate)
    acc += refine();
    if (last_status_ == RefineStatus::kDegraded) break;
    // The paper's automated criterion is the RMSE between adjacent levels;
    // that is exactly the RMS of the delta just applied (values - estimate),
    // so recompute the estimate from the coarser level and difference it.
    double sum2 = 0.0;
    VertexMapping loaded;
    const VertexMapping* mapping = nullptr;
    if (geometry_) {
      mapping = &geometry_->mappings[current_level_];
    } else {
      const util::Bytes map_raw =
          reader_.read_opaque(var_, adios::BlockKind::kMapping, current_level_);
      util::ByteReader map_reader(map_raw);
      loaded = VertexMapping::deserialize(map_reader);
      mapping = &loaded;
    }
    for (std::size_t x = 0; x < values_.size(); ++x) {
      const double est = estimate_value(coarse, before, *mapping, x, estimate_);
      const double d = values_[x] - est;
      sum2 += d * d;
    }
    const double rmse = std::sqrt(sum2 / static_cast<double>(values_.size()));
    if (rmse < rmse_threshold) break;
  }
  return acc;
}

RetrievalTimings ProgressiveReader::refine_while(
    const std::function<bool(std::uint32_t)>& admit) {
  CANOPUS_CHECK(admit != nullptr, "refine_while: admit must not be null");
  RetrievalTimings acc;
  while (current_level_ > 0) {
    if (!admit(current_level_ - 1)) break;
    acc += refine();
    if (last_status_ == RefineStatus::kDegraded) break;
  }
  return acc;
}

}  // namespace canopus::core
