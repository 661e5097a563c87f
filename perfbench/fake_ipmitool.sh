#!/bin/sh
# Stand-in for `ipmitool`, installed first on the benchmark's PATH. It
# answers the two command shapes the gfsc daemon's IPMI backend issues:
#
#   ipmitool sdr type temperature  -> the next sdr snapshot, in order
#   ipmitool raw <bytes...>        -> appended to raw.log, empty reply
#
# The benchmark writes the snapshots next to this script (snap<k>.txt,
# k = 0 .. count-1, with count in the file `count`) and resets `counter`,
# the number of sdr polls served so far, before every daemon run. Only
# shell builtins run here, so each call costs exactly one process, as a
# call to the real tool does.
dir=${0%/*}
case "$1" in
sdr)
    read -r n < "$dir/counter"
    read -r count < "$dir/count"
    echo $((n + 1)) > "$dir/counter"
    while IFS= read -r line; do
        printf '%s\n' "$line"
    done < "$dir/snap$((n % count)).txt"
    ;;
raw)
    shift
    echo "$*" >> "$dir/raw.log"
    ;;
*)
    echo "fake ipmitool: unsupported command: $*" >&2
    exit 1
    ;;
esac
