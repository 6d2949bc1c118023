#!/bin/sh
# The line count every simplicity PR reports: a file's non-test lines are
# the lines above its first `#[cfg(test)]`; whole-file test modules
# (`tests.rs`) count nothing.
#
#   scripts/non-test-lines.sh                  per crate, then the five largest files
#   scripts/non-test-lines.sh crates/isa/src   per file of that directory, then its total
set -eu
cd "$(dirname "$0")/.."

# "<lines> <file>" for every source file under the given directories.
per_file() {
    find "$@" -name '*.rs' ! -name tests.rs | sort | while read -r file; do
        echo "$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file") $file"
    done
}

if [ $# -gt 0 ]; then
    per_file "$@" | awk '{ printf "%6d %s\n", $1, $2; total += $1 } END { printf "%6d total\n", total }'
else
    per_file crates/*/src | awk '
        { split($2, path, "/"); crate[path[2]] += $1; total += $1 }
        END { for (c in crate) printf "%6d crates/%s/src\n", crate[c], c; printf "%6d crates/*/src\n", total }
    ' | sort -k2
    echo "five largest files:"
    per_file crates/*/src | sort -rn | head -n 5 | awk '{ printf "%6d %s\n", $1, $2 }'
fi
