#!/usr/bin/env bash
# Run every byte-check command against two source trees and fail unless
# every output byte matches.
#
#   scripts/compare_outputs.sh BASE_TREE HEAD_TREE [WORK_DIR]
#
# Each tree is a checkout of this repository. The one table of commands,
# commands.py beside this script, runs against each tree in one interpreter
# that imports the package from <tree>/src. Outputs land in WORK_DIR/base and
# WORK_DIR/head (default: a new temporary directory), which end in `diff -r`.
set -euo pipefail

[ "$#" -ge 2 ] && [ "$#" -le 3 ] || { echo "usage: $0 BASE_TREE HEAD_TREE [WORK_DIR]" >&2; exit 2; }
work=${3:-$(mktemp -d)}
rm -rf "$work/base" "$work/head"
python "$(dirname "$0")/commands.py" "$1" "$work/base"
python "$(dirname "$0")/commands.py" "$2" "$work/head"
diff -r "$work/base" "$work/head"
echo "outputs match: $(find "$work/head" -type f | wc -l) files in $work"
