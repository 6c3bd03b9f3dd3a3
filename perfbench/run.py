#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload ycsb_c --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The simulator is compiled from the checkout's own src/ tree into
.bench_build/perfbench (Release); nothing prebuilt is reused. The last line
of stdout is the driver's JSON result; build output goes to stderr. The
exit status is the driver's (non-zero when a correctness check fails), or
non-zero when the build fails, e.g. in a directory without the simulator
sources.

--self-test damages one value per correctness check (perfbench --corrupt)
and confirms that exactly that check reports the failure.
"""
import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170

# (workload, corruption, check that must fail)
SELF_TESTS = [
    ("ycsb_c", "ycsb_key", "ycsb.keys_loaded"),
    ("ycsb_c", "ycsb_search_count", "ycsb.search_count"),
    ("ycsb_c", "ycsb_payload", "ycsb.payload_sample"),
    ("ycsb_c", "accounting", "all.accounting"),
    ("ycsb_c", "determinism", "all.determinism"),
    ("ycsb_c", "block_state", "all.blocks_committed"),
    ("ycsb_c", "latency_exact", "all.latency_exact"),
    ("ycsb_e_scan", "scan_start", "scan.start_key"),
    ("ycsb_e_scan", "scan_result", "scan.result_keys"),
    ("tpcc", "tpcc_d_ytd", "tpcc.consistency1"),
    ("tpcc", "tpcc_next_oid", "tpcc.next_oid"),
    ("tpcc", "tpcc_payment_amount", "tpcc.payment_sum"),
    ("tpcc", "tpcc_s_ytd", "tpcc.stock_ytd_sum"),
]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, env=env, check=True)


def run_driver(args, capture_stderr=False):
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if capture_stderr else None,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr or ""


def self_test():
    bad = 0
    for workload, corruption, check in SELF_TESTS:
        code, out, err = run_driver(
            ["--workload", workload, "--seed", "1", "--seconds", "0.01",
             "--trace", "0", "--corrupt", corruption], capture_stderr=True)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        failed = sorted(set(re.findall(r"^check (\S+) failed", err, re.M)))
        tripped = (code != 0 and result.get("correct") is False
                   and check in failed)
        print(f"{workload:12s} {corruption:20s} exit {code} "
              f"correct={result.get('correct')} failed={','.join(failed)} "
              f"-> {'ok' if tripped else 'NOT DETECTED'}", file=sys.stderr)
        bad += not tripped
    print("self-test:", "FAIL" if bad else "OK", file=sys.stderr)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if a.self_test:
        return self_test()
    if not a.workload:
        p.error("--workload is required")
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds",
            a.seconds, "--trace", a.trace]
    if a.trace == "1":
        args += ["--trace-out", str(BUILD / f"trace-{a.workload}.json")]
    code, out, _ = run_driver(args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
