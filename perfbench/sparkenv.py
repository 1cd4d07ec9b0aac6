"""The benchmark's own Spark session, its machine record and its shutdown.

The session is built here with every setting spelled out, rather than
through one of the package's session builders, so that a change to
those builders cannot silently change what the benchmark measures.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

DRIVER_MEMORY = "2g"


def threads() -> int:
    """Local-mode task threads: at most 4, and never more than the cores."""
    return max(1, min(4, os.cpu_count() or 1))


def spark_conf(tmp: Path) -> dict:
    t = threads()
    return {
        "spark.master": f"local[{t}]",
        "spark.app.name": "perfbench",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.driver.host": "127.0.0.1",
        "spark.default.parallelism": str(t),
        "spark.sql.shuffle.partitions": str(t),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str(tmp / "spark-local"),
        "spark.sql.warehouse.dir": str(tmp / "warehouse"),
    }


def keep_temp_files_in(tmp: Path) -> None:
    """Point the temporary files of Python, Spark and both JVMs (the
    launcher and the driver) at ``tmp``, which the caller removes."""
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["_JAVA_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    tempfile.tempdir = str(tmp)


def start(conf: dict):
    """Start (or, after ``stop``, restart in the same JVM) a session."""
    from pyspark.sql import SparkSession

    b = SparkSession.builder
    for k, v in conf.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop the session, then the gateway JVM, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def machine_record(spark, conf: dict) -> dict:
    import duckdb
    import numpy
    import pandas
    import pyarrow
    import pyspark

    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": round(mem / 2**20),
        "driver_memory": DRIVER_MEMORY,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "pyspark": pyspark.__version__,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "spark_conf": {k: v for k, v in conf.items() if not k.endswith(".dir")},
    }
