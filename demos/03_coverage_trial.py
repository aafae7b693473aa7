"""One seeded coverage trial, three team-assignment methods side by side.

A seeded fleet is generated, fused and given a shared stream of typed
events once; a trial then forms r teams by each method and scores them:
detection asks whether the team owning the nearest robot can sense the
event type, duplication counts robots whose sensors repeat inside their
own team.
"""

from hetcover.simulation import (
    METRICS_HEADER,
    SimConfig,
    metrics_rows,
    prepare_fleet,
    run_trial,
)

config = SimConfig(n_robots=12, n_capabilities=3, seed=7)
n_teams = 4
print("fleet of %d robots, %d sensor types, %d teams, seed %d"
      % (config.n_robots, config.n_capabilities, n_teams, config.seed))
print("events per trial:", config.n_events)
print()

reports = run_trial(prepare_fleet(config), n_teams)
for rep in reports:
    print("%-8s detection %.2f  duplication %.2f"
          % (rep.method.value, rep.detection_rate, rep.duplication_rate))

# the same rows the batch runner appends to metrics.csv
print()
print(METRICS_HEADER)
for row in metrics_rows(config, reports):
    print(row)

# identical seed, identical numbers, from a fleet prepared afresh
again = run_trial(prepare_fleet(config), n_teams)
assert [ (r.detection_rate, r.duplication_rate) for r in again ] == \
       [ (r.detection_rate, r.duplication_rate) for r in reports ]
print()
print("re-running the same seed reproduces every rate exactly")
