"""Table III — device property comparison."""

from __future__ import annotations

from typing import List, Tuple

from repro.arch import get_device
from repro.core.checks import Check
from repro.core.context import RunContext
from repro.core.tables import Table


def table03(ctx: RunContext) -> Tuple[Table, List[Check]]:
    names = ctx.device_order("A100", "RTX4090", "H800")
    devices = [get_device(n) for n in names]
    rows = [d.table3_row() for d in devices]
    keys = list(rows[0].keys())
    table = Table(
        "Table III: device properties",
        ["Property"] + [d.marketing_name for d in devices],
    )
    for k in keys[1:]:
        table.add_row(k, *(r[k] for r in rows))

    by_name = dict(zip(names, devices))
    checks: List[Check] = []
    if ctx.has("A100", "RTX4090", "H800"):
        a100 = by_name["A100"]
        rtx = by_name["RTX4090"]
        h800 = by_name["H800"]
        checks += [
            Check("only Hopper has DPX hardware",
                  h800.pack.has_dpx_hardware
                  and not a100.pack.has_dpx_hardware
                  and not rtx.pack.has_dpx_hardware),
            Check("only Hopper has distributed shared memory",
                  h800.pack.has_distributed_shared_memory
                  and not a100.pack.has_distributed_shared_memory
                  and not rtx.pack.has_distributed_shared_memory),
            Check("H800 has the highest memory bandwidth",
                  h800.dram.peak_bandwidth_gbps
                  > max(a100.dram.peak_bandwidth_gbps,
                        rtx.dram.peak_bandwidth_gbps)),
            Check("Ada and Hopper carry 4th-gen tensor cores, Ampere 3rd",
                  rtx.pack.tensor_core_generation == 4
                  and h800.pack.tensor_core_generation == 4
                  and a100.pack.tensor_core_generation == 3),
            Check("compute capabilities are 8.0 / 8.9 / 9.0",
                  (a100.compute_capability, rtx.compute_capability,
                   h800.compute_capability) == ("8.0", "8.9", "9.0")),
        ]
    else:
        # single-device / partial sweeps: per-device sanity only
        for d in devices:
            checks.append(Check(
                f"{d.name}: spec row is complete",
                all(v not in (None, "") for v in d.table3_row().values()),
            ))
    return table, checks
