"""Public API of the Sherlock reproduction.

Typical use::

    from repro.core import CompilerConfig, SherlockCompiler, TargetSpec
    from repro.devices import RERAM

    target = TargetSpec.square(512, RERAM)
    program = SherlockCompiler(target, CompilerConfig(mapper="sherlock")).compile(dag)
    program.verify({"a": 0b1010, ...})
    print(program.metrics.latency_us, program.metrics.energy_uj)
"""

from repro.arch.target import TargetSpec
from repro.core.cache import ArtifactCache
from repro.core.compiler import (
    CompiledProgram,
    LadderAttempt,
    SherlockCompiler,
    clear_compile_cache,
    compile_cache_info,
    compile_dag,
    program_key,
)
from repro.core.config import TABLE2_CONFIGS, CompilerConfig
from repro.core.passes import (
    PASS_REGISTRY,
    CompilationContext,
    FunctionPass,
    Pass,
    PassEvent,
    PassManager,
    default_pipeline,
    parse_pipeline,
    register_pass,
)
from repro.core.serialize import load_program, save_program
from repro.core.report import (
    COMPILE_REPORT_HEADERS,
    PASS_REPORT_HEADERS,
    PROGRAM_REPORT_HEADERS,
    RECOVERY_REPORT_HEADERS,
    CompileReport,
    PassReport,
    ProgramReport,
    RecoveryReport,
    format_table,
    render_reports,
)

__all__ = [
    "ArtifactCache",
    "COMPILE_REPORT_HEADERS",
    "CompilationContext",
    "CompileReport",
    "CompiledProgram",
    "CompilerConfig",
    "FunctionPass",
    "LadderAttempt",
    "PASS_REGISTRY",
    "PASS_REPORT_HEADERS",
    "PROGRAM_REPORT_HEADERS",
    "Pass",
    "PassEvent",
    "PassManager",
    "PassReport",
    "ProgramReport",
    "RECOVERY_REPORT_HEADERS",
    "RecoveryReport",
    "SherlockCompiler",
    "TABLE2_CONFIGS",
    "TargetSpec",
    "clear_compile_cache",
    "compile_cache_info",
    "compile_dag",
    "default_pipeline",
    "load_program",
    "parse_pipeline",
    "program_key",
    "register_pass",
    "save_program",
    "format_table",
    "render_reports",
]
