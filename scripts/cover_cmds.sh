#!/bin/sh
# Builds momexp, momsim and momtrace with coverage on, runs every momexp
# selector, every flag each command declares, momsim's report
# configurations, momtrace over every stream and the refusals CI checks,
# and prints the functions no run entered, one per line:
#
#	<file> <function> <reason>
#
# The reason is the one testdata/unreached.txt gives the function
# ("new" when it lists none). Exits 1 when a flag in a command's -h has
# no run below, when a listed reason is outside the closed set, or when
# the printed list differs from testdata/unreached.txt: a function that
# joins the list, and one the list names that a run now enters or that
# is gone, both fail, so the file only shrinks. After a deletion,
# rewrite it with `scripts/cover_cmds.sh > testdata/unreached.txt`.
#
# Reasons: bench (only bench/ reaches it), reference (a test oracle),
# fmt (a String method), refusal (only malformed input reaches it),
# contract (an interface method no kernel drives).
set -eu
export LC_ALL=C
cd "$(dirname "$0")/.."
list=$(pwd)/testdata/unreached.txt
reasons='bench reference fmt refusal contract'
work=$(mktemp -d "${TMPDIR:-/tmp}/cover_cmds.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/cov"
for c in momexp momsim momtrace; do
	go build -cover -coverpkg=./internal/...,./cmd/... -o "$work/$c" "./cmd/$c"
done
cd "$work"

# run CMD ARGS... runs one command line that must succeed; refuse runs
# one that must fail. Both record the line's words for the flag check.
run() {
	c=$1
	shift
	printf '%s\n' "$@" >>"$c.args"
	GOCOVERDIR=cov "./$c" "$@" >out.txt 2>&1 || {
		cat out.txt >&2
		echo "cover_cmds: $c $* failed" >&2
		exit 1
	}
}
refuse() {
	c=$1
	shift
	printf '%s\n' "$@" >>"$c.args"
	if GOCOVERDIR=cov "./$c" "$@" >out.txt 2>&1; then
		echo "cover_cmds: $c $* exited zero" >&2
		exit 1
	fi
}

# momexp: every selector, serial and on two workers, so what the runs
# enter does not hang on the host's CPU count.
for j in 1 2; do
	run momexp -q -j $j
	for s in headline dramsweep mshrsweep pfsweep rpsweep ifsweep vasweep latdist; do
		run momexp -q -j $j -$s
	done
	for n in 3 6 7 9 10 11; do
		run momexp -q -j $j -fig $n
	done
	for n in 1 2 3 4; do
		run momexp -q -j $j -table $n
	done
	run momexp -q -j $j -cpisweep cpi.json
	run momexp -q -j $j -statsjson stats.json
done
# Progress lines and the closing host: line.
run momexp -headline
# The backend flags.
run momexp -q -fig 9 -dram sdram -dprof hbm -dchan 2 -dmap bank -dsched fcfs -rp close
run momexp -q -headline -dram fixed -mshr 8 -pf 4 -pfd 2
run momexp -q -table 3 -dram sdram -dmap bank -va color -cpuprofile cpu.prof -memprofile mem.prof

# momsim: the report goldens' configurations (cmd/momsim/report_test.go),
# then every flag.
run momsim -bench gsmencode -statsjson s.json
run momsim -isa mmx -mem multibanked
run momsim -mem ideal
run momsim -dram sdram -mshr 16 -pf 8 -rp history -cpistack
run momsim -dram sdram -dmap bank -va color
run momsim -bench motionsearch -dram sdram -tenants 2 -qos -va first -cpistack
run momsim -bench motionsearch -dram sdram -dmap bank -tenants 3 -va colo
run momsim -bench motionsearch -dram sdram -dmap bank -tenants 2 -va color
run momsim -bench jpegdecode -isa mom -mem vcache -l2 12 -mlat 50
run momsim -bench mpeg2decode -dram sdram -dprof hbm -dchan 2 -dsched fcfs -mshr 8 -pf 4 -pfd 2
# The tracer over each backend, with translation and two tenants.
run momsim -bench jpegencode -dram sdram -va first -tenants 2 -mshr 8 -trace trace.json -tracebuf 4096
run momsim -bench gsmencode -tenants 2 -mshr 8 -trace trace.json -sample 5000 -samplejson sample.json
run momsim -bench gsmencode -cpuprofile cpu.prof -memprofile mem.prof

# momtrace: every stream, with its profile, a dump and a skip.
for b in mpeg2encode mpeg2decode jpegencode jpegdecode gsmencode motionsearch; do
	for v in mmx mom mom3d; do
		run momtrace -bench $b -isa $v -json trace.json -dump 40 -skip 1000
	done
done

# CI's refusals (.github/workflows/ci.yml, "flag errors are errors").
refuse momsim -bench gsmencode -tenants 257
refuse momsim -bench gsmencode -l2 -100
refuse momsim -bench motionsearch -isa mom3d -mem vcache3d -dram sdram -tenants 4 -va color
refuse momsim -bench gsmencode -dram fixed -va color
refuse momsim -bench gsmencode -isa mom3d -mem vcache
refuse momtrace -bench gsmencode -skip -1 -dump 2
refuse momtrace -bench gsmencode -dump -1
refuse momtrace -bench gsmencode -skip 999999999 -dump 3
refuse momsim -bench gsmencode -memprofile /nonexistent/m.prof
refuse momsim -bench gsmencode -statsjson /nonexistent/s.json
refuse momsim -bench gsmencode -statsjson same.out -cpuprofile same.out
refuse momexp -cpisweep same.out -memprofile same.out
for c in momsim "momexp -headline"; do
	refuse $c -dram sdram -dchan 4611686018427387904
	refuse $c -dram sdram -dchan 1073741824
	refuse $c -dram sdram -mshr 2147483647
	refuse $c -dram sdram -dwq 8
	refuse $c -dram fixed -mshr 8 -pf 2147483647
	refuse $c -dram sdram -rp timer
	refuse $c -dram sdram -rp timer:200
done

# Every flag a command declares has a run above.
status=0
for c in momexp momsim momtrace; do
	for f in $("./$c" -h 2>&1 | sed -n 's/^  -\([a-z0-9]*\).*/\1/p'); do
		grep -qx -e "-$f" -e "-$f=.*" "$c.args" || {
			echo "cover_cmds: no run passes $c -$f" >&2
			status=1
		}
	done
done

# The functions no run entered, with their listed reasons.
go tool covdata func -i=cov |
	awk '$NF == "0.0%" { f = $1; sub(/^repro\//, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' |
	sort -u >names.txt
awk 'FILENAME == ARGV[1] { reason[$1 " " $2] = $3; next }
	{ r = reason[$0]; print $0, (r == "" ? "new" : r) }' "$list" names.txt >unreached.txt
cat unreached.txt
for r in $(awk '{ print $3 }' "$list" | sort -u); do
	case " $reasons " in
	*" $r "*) ;;
	*)
		echo "cover_cmds: testdata/unreached.txt: reason $r is not one of: $reasons" >&2
		status=1
		;;
	esac
done
if ! diff -u "$list" unreached.txt >&2; then
	echo "cover_cmds: the list differs from testdata/unreached.txt: give a new function a run that enters it, or delete it; drop a line a run now enters" >&2
	status=1
fi
exit $status
