#pragma once
// Umbrella header: the public Canopus API.
//
// The one entry point is the canopus::Pipeline facade (pipeline.hpp):
//
//   storage::StorageHierarchy tiers({storage::tmpfs_spec(...),
//                                    storage::lustre_spec(...)});
//   Pipeline pipeline(tiers);
//
//   WriteRequest wreq;
//   wreq.path = "run.bp"; wreq.var = "dpot";
//   wreq.mesh = &mesh; wreq.values = &values;
//   Status ws = pipeline.write(wreq);
//
//   ReadRequest rreq;
//   rreq.path = "run.bp"; rreq.var = "dpot";
//   ReadResult data;
//   Status rs = pipeline.read(rreq, &data);   // full accuracy by default
//
// For step-wise elastic refinement, pipeline.open() hands out a
// ProgressiveReader (the read engine) at base accuracy, and
// pipeline.open_session() a ReadSession that shares the pipeline's pool and
// block cache with other sessions:
//
//   std::unique_ptr<core::ProgressiveReader> reader;
//   pipeline.open(rreq, &reader);
//   analyze(reader->values(), reader->current_mesh());  // base accuracy
//   reader->refine();                                   // one level better
//
// Options (options.hpp) configure a pipeline once; Pipeline::load builds one
// from an XML RuntimeConfig (config.hpp).

#include "core/byte_split.hpp"
#include "core/campaign.hpp"
#include "core/delta.hpp"
#include "core/geometry_cache.hpp"
#include "core/pipeline.hpp"
#include "core/progressive_reader.hpp"
#include "core/refactorer.hpp"
#include "core/transport.hpp"
#include "core/types.hpp"
