#!/bin/sh
# Keeps the simulator's stage split (DESIGN.md §3) from growing back. Run
# from the repository root; prints every broken rule and exits 1 if any:
#   - no file under src/sim/ is over 700 lines;
#   - a Machine's demand map (demands(), add_demand(, remove_demand() is
#     touched under src/ only by sim/machine.{h,cc} and sim/books.cc;
#   - the private header sim/simulator_impl.h is included only by
#     src/sim/*.cc.
set -eu
status=0

for f in $(find src/sim -type f); do
  lines=$(wc -l < "$f")
  if [ "$lines" -gt 700 ]; then
    echo "$f: $lines lines, over the 700-line limit"
    status=1
  fi
done

hits=$(grep -rnE 'demands\(\)|add_demand\(|remove_demand\(' src |
  grep -vE '^src/sim/(machine\.(h|cc)|books\.cc):' || true)
if [ -n "$hits" ]; then
  echo "a Machine's demand map is touched outside sim/books.cc:"
  echo "$hits"
  status=1
fi

hits=$(grep -rlE '#include[[:space:]]*"sim/simulator_impl\.h"' \
  src tests bench examples tools perfbench |
  grep -vE '^src/sim/[^/]+\.cc$' || true)
if [ -n "$hits" ]; then
  echo "sim/simulator_impl.h is private to src/sim/*.cc, but included by:"
  echo "$hits"
  status=1
fi

exit "$status"
