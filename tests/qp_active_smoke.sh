#!/usr/bin/env bash
# Command-line smoke run with the QP active, from the repository root, with
# the screwmpc command installed:
#
#     PYTHONWARNINGS=error bash tests/qp_active_smoke.sh
#
# Under the track-tight limits every plan ends at zero acceleration, so
# every tick's QP is feasible (ROADMAP item 1).  The run goes through the law
# builds (LAPACK's solve gufunc), the law rounds, the location and the dual
# steps.  It writes ci-tight-a and ci-tight-b, which must be the same bytes,
# and fails unless a law holds every QP-active record: one unconverged
# record, one with qp_iters > 0 (qp_iters counts the law rounds of a solve
# that did not converge; 156 of the 246 records are QP-active) or fewer than
# 100 QP-active records fails it, and so does a violation that verify finds.
set -eo pipefail

mkdir -p ci-tight-a
printf '%s\n' \
  'limits.vel.min = -1 -1 -1 -1 -1 -1' 'limits.vel.max = 1 1 1 1 1 1' \
  'limits.acc.min = -10 -10 -10 -10 -10 -10' 'limits.acc.max = 10 10 10 10 10 10' \
  'limits.jerk.min = -20 -20 -20 -20 -20 -20' 'limits.jerk.max = 20 20 20 20 20 20' \
  'samples_per_segment = 20' 'max_duration_s = 3' > ci-tight-a/run.cfg
for out in ci-tight-a ci-tight-b; do
  screwmpc simulate --config ci-tight-a/run.cfg --random 4 --seed 1 --out $out
done
cmp ci-tight-a/trajectory.csv ci-tight-b/trajectory.csv
python - ci-tight-a/trajectory.csv <<'PY'
import sys
from screwmpc.simulate import read_trajectory_csv as read
cols, rows = read(sys.argv[1])
col = lambda name: rows[:, cols.index(name)]
active = int((col('qp_active') > 0).sum())
print(f'QP-active records: {active} of {len(rows)}')
unconverged, walked = int((col('qp_converged') == 0).sum()), int((col('qp_iters') > 0).sum())
print(f'unconverged records: {unconverged}, records with qp_iters > 0: {walked}')
sys.exit(int(unconverged > 0 or walked > 0 or active < 100))
PY
screwmpc verify --config ci-tight-a/run.cfg --out ci-tight-a
