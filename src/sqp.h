#ifndef SQP_SQP_H_
#define SQP_SQP_H_

/// \file
/// Umbrella header for streamqp's public API. Downstream users can
/// `#include "sqp.h"` and link `streamqp`; fine-grained headers remain
/// available for faster builds.
///
/// Layering (see DESIGN.md):
///   common -> stream/window/agg/synopsis -> exec -> sched/shed/opt/cql
///   -> arch (3-level architecture + StreamEngine); hancock and xml are
///   self-contained side libraries.

// Core value/tuple model and error handling.
#include "common/rng.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/tuple.h"
#include "common/value.h"

// Stream elements, queues, arrival processes, workload generators.
#include "stream/arrival.h"
#include "stream/element.h"
#include "stream/generators.h"
#include "stream/queue.h"

// Window taxonomy (slides 26-28).
#include "window/count_window.h"
#include "window/partitioned_window.h"
#include "window/punctuation_window.h"
#include "window/time_window.h"
#include "window/window_spec.h"

// Aggregates and synopses (slides 34-38).
#include "agg/aggregate_fn.h"
#include "agg/partial_agg.h"
#include "synopsis/ams.h"
#include "synopsis/count_min.h"
#include "synopsis/distinct.h"
#include "synopsis/exp_histogram.h"
#include "synopsis/gk_quantile.h"
#include "synopsis/histogram.h"
#include "synopsis/misra_gries.h"
#include "synopsis/reservoir.h"

// Observability: engine-wide metrics registry, per-operator counters,
// sampled lineage tracing, JSON/Prometheus export.
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/op_metrics.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

// Physical operators (slides 29-33).
#include "exec/aggregate_op.h"
#include "exec/eddy.h"
#include "exec/expr.h"
#include "exec/merge_join.h"
#include "exec/mjoin.h"
#include "exec/operator.h"
#include "exec/paned_window_agg.h"
#include "exec/partitioned_window_agg.h"
#include "exec/plan.h"
#include "exec/project.h"
#include "exec/punct_groupby.h"
#include "exec/reorder.h"
#include "exec/select.h"
#include "exec/streamify.h"
#include "exec/sym_hash_join.h"
#include "exec/union.h"
#include "exec/window_agg.h"
#include "exec/window_join.h"
#include "exec/xjoin.h"

// Scheduling, shedding, optimization (slides 39-45).
#include "opt/memory_bound.h"
#include "opt/rate_model.h"
#include "opt/rate_optimizer.h"
#include "opt/sharing.h"
#include "sched/policies.h"
#include "sched/queued_executor.h"
#include "sched/sim.h"
#include "shed/feedback_shedder.h"
#include "shed/load_shedder.h"
#include "shed/qos.h"
#include "shed/shed_planner.h"

// Continuous query language (slide 25).
#include "cql/analyzer.h"
#include "cql/parser.h"
#include "cql/planner.h"

// 3-level architecture and engine facade (slides 14-15, 54).
#include "arch/cql_decompose.h"
#include "arch/db_sink.h"
#include "arch/decompose.h"
#include "arch/engine.h"
#include "arch/node.h"
#include "arch/system.h"

// Case-study side libraries.
#include "hancock/program.h"
#include "hancock/signature.h"
#include "xml/doc_gen.h"
#include "xml/filter.h"
#include "xml/xml_event.h"
#include "xml/xpath.h"

#endif  // SQP_SQP_H_
