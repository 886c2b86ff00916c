#!/usr/bin/env bash
# Lints every metric name registered through MetricsRegistry::
# Get{Counter,Gauge,Histogram} or named by an OODGNN_TRACE_SCOPE phase
# histogram in src/ against the area/object/unit convention the
# exporters and dashboards key on: at least three lowercase [a-z0-9_]
# segments separated by '/', e.g. "serve/e2e/us", "kernel/matmul/calls"
# or "core/rff_transform/us".
#
# Dynamically composed names (some_prefix + "/unit") are validated on
# their literal tail, which must itself be one or more '/'-led
# segments; the prefix side is covered by the convention that
# composed prefixes are "area/<dynamic-object>" ("kernel/" + op,
# "slo/" + name). A registration whose argument carries no literal at
# all fails the lint — names must be greppable.
#
# Run from the repo root (the ctest "lint" label does). Exits non-zero
# on any violation, printing file:line diagnostics.
set -u
cd "$(dirname "$0")/.."

fail=0
checked=0
# The registry and the scope macro's own definition pass names through
# parameters; they are excluded below.
registration='(Get(Counter|Gauge|Histogram)|OODGNN_TRACE_SCOPE)'

while IFS= read -r hit; do
  file=${hit%%:*}
  rest=${hit#*:}
  lineno=${rest%%:*}
  text=${rest#*:}
  while IFS= read -r call; do
    [ -n "$call" ] || continue
    arg=${call#*(}
    checked=$((checked + 1))
    if printf '%s' "$arg" | grep -Eq '^"[^"]*"$'; then
      # Single literal: the full name must be area/object/unit.
      name=${arg#\"}
      name=${name%\"}
      if ! printf '%s' "$name" | grep -Eq '^[a-z0-9_]+(/[a-z0-9_]+){2,}$'; then
        echo "$file:$lineno: metric name '$name' violates area/object/unit" >&2
        fail=1
      fi
    else
      # Composed: the trailing literal must be a '/'-led segment chain.
      suffix=$(printf '%s' "$arg" | grep -Eo '"[^"]*"' | tail -n1)
      if [ -z "$suffix" ]; then
        echo "$file:$lineno: metric registration has no literal name part:" \
             "$arg" >&2
        fail=1
        continue
      fi
      suffix=${suffix#\"}
      suffix=${suffix%\"}
      if ! printf '%s' "$suffix" | grep -Eq '^(/[a-z0-9_]+)+$'; then
        echo "$file:$lineno: composed metric suffix '$suffix' must be" \
             "'/'-led lowercase segments" >&2
        fail=1
      fi
    fi
  done < <(printf '%s\n' "$text" | grep -Eo "$registration\\([^)]*" || true)
done < <(grep -rnE "$registration\\(" src --include='*.cc' --include='*.h' \
         | grep -vE '^src/obs/(metrics\.|trace\.h:)')

# Family-presence check: the scheduler's shed accounting, the rollout
# manager's version accounting and the training phase histograms are
# exporter/dashboard contracts — every name below must stay registered
# somewhere in src/. Renaming one silently breaks alerts keyed on the
# old name, so the rename must land here in the same change.
required_names="
serve/shed/total
serve/shed/queue_full
serve/shed/quota
serve/shed/deadline
serve/shed/slo
serve/shed/invalid
serve/sched/submitted
serve/sched/admitted
serve/sched/dispatched
serve/version/current
serve/version/rollouts
serve/version/requests
kernel/simd/vector_calls
kernel/simd/scalar_calls
train/encode/us
train/reweight/us
train/loss_step/us
train/eval/us
core/compute_weights/us
core/weight_optimize/us
core/rff_transform/us
core/decorrelation_loss/us
"
for name in $required_names; do
  checked=$((checked + 1))
  if ! grep -rqF "\"$name\"" src --include='*.cc' --include='*.h'; then
    echo "required metric '$name' is no longer registered in src/" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_metric_names: FAILED" >&2
  exit 1
fi
echo "check_metric_names: OK ($checked registrations checked)"
