package main

import (
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"

	"copydetect/internal/scenario"
)

func parsePIDs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var pids []int
	for _, part := range strings.Split(s, ",") {
		pid, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || pid <= 0 {
			return nil, fmt.Errorf("copyload: bad -pids entry %q", part)
		}
		pids = append(pids, pid)
	}
	return pids, nil
}

func splitTargets(s, fallback string) []string {
	if s == "" {
		return []string{fallback}
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// pidInjector realizes inject steps against backend processes
// identified by position in -pids: kill-backend sends SIGKILL,
// pause-backend/resume-backend SIGSTOP/SIGCONT, exec runs a command.
type pidInjector struct {
	pids []int
}

func (pi *pidInjector) Inject(ctx context.Context, step scenario.InjectStep) error {
	if step.Action == "exec" {
		cmd := exec.CommandContext(ctx, step.Cmd[0], step.Cmd[1:]...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return fmt.Errorf("exec %v: %w: %s", step.Cmd, err, out)
		}
		return nil
	}
	if step.Backend < 0 || step.Backend >= len(pi.pids) {
		return fmt.Errorf("%s: backend %d but only %d pids given via -pids", step.Action, step.Backend, len(pi.pids))
	}
	return signalPID(pi.pids[step.Backend], step.Action)
}
