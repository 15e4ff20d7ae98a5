"""Run `qtshuffle.cli.main` in this process, gauging the machine's speed
all along (pace.py), and optionally with the span tracer bound (traced run).

    clientry.py [--trace-out FILE] -- CLI ARGS...

The command's own output comes first; the last line on stdout is
`{"pace": [...]}`, the gauge samples.  The tracer is bound before the command
runs, and the spans are written to FILE when it returns, even if it raises.
"""

import json
import sys

from pace import Pace


def main(argv):
    pace = Pace().start()
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    import qtshuffle.cli as cli

    tracer = None
    if "--trace-out" in opts:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        samples = pace.stop()
        if tracer is not None:
            tracer.dump(opts[opts.index("--trace-out") + 1], "cli")
        sys.stdout.write(json.dumps({"pace": samples}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
