// Pipeline facade entry points into the serve module.
//
// These are member functions of canopus::Pipeline, declared in
// core/pipeline.hpp but defined here: serve links against core, so core's own
// TUs never reference serve symbols and the layering stays acyclic. Any
// binary calling Pipeline::submit_query()/query_scheduler() links canopus
// (the umbrella), which carries this TU.

#include "core/pipeline.hpp"
#include "serve/query_scheduler.hpp"

namespace canopus {

serve::QueryScheduler& Pipeline::query_scheduler() {
  // With tiering enabled the advisor must exist before the first query, or
  // no heat is recorded and the placement loop never closes. Created outside
  // the call_once body: tier_advisor() takes fabric_mu_ itself, so creating
  // it inside would self-deadlock.
  if (options_.tiering.has_value() && options_.tiering->enabled) {
    tier_advisor();
  }
  std::call_once(scheduler_once_, [this] {
    core::ReaderOptions reader_options;
    reader_options.parallel = options_.parallel;
    reader_options.io = options_.io;
    if (session_pool_.has_value()) reader_options.shared_pool = &*session_pool_;
    auto scheduler = std::make_shared<serve::QueryScheduler>(
        *hierarchy_, options_.serve.value_or(serve::ServeConfig{}),
        reader_options);
    // Route across the attached fabric (if any), and keep routing current
    // when the fabric is attached or swapped later: Pipeline::attach_fabric
    // (fabric module) fires this hook under the same mutex. The hook
    // captures the shared_ptr, not `this`, so it stays valid for the
    // scheduler's whole lifetime. Composed with (not replacing) any hook the
    // tier advisor installed before us.
    std::scoped_lock lock(fabric_mu_);
    scheduler->attach_fabric(fabric_);
    auto previous = std::move(on_fabric_change_);
    on_fabric_change_ = [scheduler, previous = std::move(previous)](
                            fabric::Fabric* fabric) {
      if (previous) previous(fabric);
      scheduler->attach_fabric(fabric);
    };
    // Predicted-residency source: use the advisor if it exists, and pick it
    // up later if Pipeline::tier_advisor() creates one after us.
    scheduler->attach_tier_advisor(advisor_raw_);
    on_advisor_change_ = [scheduler](tiering::TierAdvisor* advisor) {
      scheduler->attach_tier_advisor(advisor);
    };
    scheduler_ = std::move(scheduler);
  });
  return *scheduler_;
}

Status Pipeline::submit_query(const serve::QueryRequest& request,
                              serve::QueryResult* result) {
  if (result == nullptr) {
    return Status::failure(StatusCode::kInvalidArgument,
                           "submit_query: result must not be null");
  }
  return query_scheduler().execute(request, result);
}

}  // namespace canopus
